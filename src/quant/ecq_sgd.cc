// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/ecq_sgd.h"

#include <algorithm>
#include <cmath>

#include "base/bit_packing.h"
#include "base/logging.h"
#include "base/simd/elementwise.h"
#include "base/thread_annotations.h"
#include "base/rng.h"
#include "base/strings.h"
#include "obs/span.h"
#include "quant/registry.h"
#include "quant/simd_kernels.h"
#include "quant/workspace.h"

namespace lpsgd {
namespace {

using codec_internal::FloatsAt;
using codec_internal::MutableFloatsAt;
using codec_internal::MutableWordsAt;
using codec_internal::WordsAt;

}  // namespace

EcqSgdCodec::EcqSgdCodec(int bits, int64_t bucket_size, bool error_feedback,
                         uint64_t seed)
    : bits_(bits),
      bucket_size_(bucket_size),
      error_feedback_(error_feedback),
      seed_(seed) {
  CHECK_GE(bits, 2);
  CHECK_LE(bits, 16);
  CHECK_GT(bucket_size, 0);
  level_count_ = (1u << (bits_ - 1)) - 1u;
  CHECK_GE(level_count_, 1u);
}

std::string EcqSgdCodec::Name() const {
  return StrCat("ECQ-SGD ", bits_, "bit (b=", bucket_size_, ")");
}

int64_t EcqSgdCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  return (n + bucket_size_ - 1) / bucket_size_;
}

int64_t EcqSgdCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const BitPacker packer(bits_);
  return NumChunks(shape) * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

LPSGD_HOT_PATH
void EcqSgdCodec::Encode(const float* grad, const Shape& shape,
                         uint64_t stochastic_tag, std::vector<float>* error,
                         CodecWorkspace* workspace,
                         std::vector<uint8_t>* out) const {
  obs::Span span(codec_internal::EncodeSinks(
      "quant/ecq_sgd/encode_calls", &workspace->phases, out));
  const int64_t n = shape.element_count();
  CHECK(!error_feedback_ || error != nullptr);
  if (error_feedback_) {
    CHECK_EQ(static_cast<int64_t>(error->size()), n);
  }
  const int64_t buckets = NumChunks(shape);
  const CounterRng stream(seed_, stochastic_tag);
  const uint32_t s = level_count_;

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();

  // v = grad + carried error, staged once in workspace scratch; the
  // quantizer below runs over v, and the fresh residual v - Q(v) replaces
  // the error buffer in the same loop.
  float* corrected =
      quant_internal::EnsureSize(&workspace->corrected, static_cast<size_t>(n));
  kernels.stage_corrected(grad, error_feedback_ ? error->data() : nullptr,
                          corrected, n);

  // magnitudes[m] = m / s, the same table Decode builds, so the residual
  // uses bit-identical dequantized values.
  double* magnitudes = quant_internal::EnsureSize(
      &workspace->magnitudes, static_cast<size_t>(s) + 1);
  for (uint32_t m = 0; m <= s; ++m) {
    magnitudes[m] = m / static_cast<double>(s);
  }

  uint8_t* blob = quant_internal::EnsureSize(
      out, static_cast<size_t>(EncodedSizeBytes(shape)));
  float* scales = MutableFloatsAt(blob, 0);
  BitWriter writer(
      MutableWordsAt(blob, buckets * static_cast<int64_t>(sizeof(float))),
      bits_);

  // QSGD stochastic rounding of a * s (unbiased, Equation 1) fused with
  // the residual refresh, via the runtime-dispatched kernel table.
  quant_simd::QuantizeArgs args;
  args.values = corrected;
  args.stream_seed = stream.stream_seed();
  args.bits = bits_;
  args.level_count = s;
  args.writer = &writer;
  args.magnitudes = magnitudes;
  for (int64_t b = 0; b < buckets; ++b) {
    const int64_t begin = b * bucket_size_;
    const int64_t end = std::min(begin + bucket_size_, n);

    const double scale = elementwise.max_abs_f32(corrected + begin,
                                                 end - begin);
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // All-zero bucket: zero fields, zero residual.
      for (int64_t i = begin; i < end; ++i) {
        writer.Put(0u);
        if (error_feedback_) (*error)[static_cast<size_t>(i)] = 0.0f;
      }
      continue;
    }

    args.begin = begin;
    args.end = end;
    args.scale = scale;
    args.error = error_feedback_ ? error->data() : nullptr;
    kernels.ecq_quantize(args);
  }
  writer.Finish();
  codec_internal::SealWireBlob(
      blob, EncodedSizeBytes(shape) - codec_internal::kWireChecksumBytes);
}

LPSGD_HOT_PATH
Status EcqSgdCodec::Decode(const uint8_t* bytes, int64_t num_bytes,
                           const Shape& shape, CodecWorkspace* workspace,
                           float* out) const {
  obs::Span span(codec_internal::DecodeSinks(
      "quant/ecq_sgd/decode_calls", &workspace->phases));
  const int64_t n = shape.element_count();
  LPSGD_RETURN_IF_ERROR(codec_internal::VerifyWireBlob(
      "ecq_sgd", bytes, num_bytes, EncodedSizeBytes(shape)));
  const int64_t buckets = NumChunks(shape);
  const float* scales = FloatsAt(bytes, 0);
  BitReader reader(
      WordsAt(bytes, buckets * static_cast<int64_t>(sizeof(float))), bits_);

  double* magnitudes = quant_internal::EnsureSize(
      &workspace->magnitudes, static_cast<size_t>(level_count_) + 1);
  for (uint32_t m = 0; m <= level_count_; ++m) {
    magnitudes[m] = m / static_cast<double>(level_count_);
  }
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::DequantizeArgs args;
  args.reader = &reader;
  args.bits = bits_;
  args.magnitude_mask = (1u << (bits_ - 1)) - 1u;
  args.magnitudes = magnitudes;
  args.out = out;
  for (int64_t b = 0; b < buckets; ++b) {
    args.begin = b * bucket_size_;
    args.end = std::min(args.begin + bucket_size_, n);
    args.scale = scales[b];
    kernels.dequantize_sm(args);
  }
  return OkStatus();
}

CodecSpec EcqSgdSpec(int bits) {
  CodecSpec spec = QsgdSpec(bits);
  spec.kind = CodecKind::kEcqSgd;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkEcqSgdCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily EcqSgdFamily() {
  CodecFamily family;
  family.kind = CodecKind::kEcqSgd;
  family.name = "ecq<bits>";
  family.help = "error-compensated QSGD, bits in [2,16], optional "
                ":<bucket> or bucket=";
  family.keys = {"bucket"};
  family.matches = [](const std::string& head) {
    return MatchesBitsHead(head, "ecq");
  };
  family.parse = [](const std::string& head,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    LPSGD_ASSIGN_OR_RETURN(const int bits,
                           ParseBitsHead(head, "ecq", "ECQ-SGD"));
    CodecSpec spec = EcqSgdSpec(bits);
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bits < 2 || spec.bits > 16) {
      return InvalidArgumentError(
          StrCat("ECQ-SGD bits must be in [2, 16], got ", spec.bits));
    }
    if (spec.bucket_size <= 0) {
      return InvalidArgumentError(StrCat(
          "ECQ-SGD bucket size must be positive, got ", spec.bucket_size));
    }
    return std::unique_ptr<GradientCodec>(new EcqSgdCodec(
        spec.bits, spec.bucket_size, spec.error_feedback, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    return StrCat("ECQ-SGD ", spec.bits, "bit (b=", spec.bucket_size, ")");
  };
  family.short_label = [](const CodecSpec& spec) {
    return StrCat("EC", spec.bits);
  };
  return family;
}

const CodecRegistrar registrar(EcqSgdFamily());

}  // namespace
}  // namespace lpsgd
