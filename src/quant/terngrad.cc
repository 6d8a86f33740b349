// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/terngrad.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

constexpr int kFieldBits = 2;  // 1 sign bit + 1 magnitude bit

}  // namespace

TernGradCodec::TernGradCodec(int64_t bucket_size, double clip, uint64_t seed)
    : bucket_size_(bucket_size > 0 ? bucket_size : 0),
      clip_(clip > 0.0 ? clip : 0.0),
      seed_(seed) {}

std::string TernGradCodec::Name() const {
  std::string name =
      bucket_size_ > 0 ? StrCat("TernGrad (b=", bucket_size_, ")")
                       : std::string("TernGrad");
  if (clip_ > 0.0) {
    name = StrCat(name, " clip=", FormatDouble(clip_, 1));
  }
  return name;
}

int64_t TernGradCodec::ChunkLength(int64_t n) const {
  return bucket_size_ > 0 ? bucket_size_ : n;
}

int64_t TernGradCodec::NumChunks(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const int64_t len = ChunkLength(n);
  return (n + len - 1) / len;
}

int64_t TernGradCodec::EncodedSizeBytes(const Shape& shape) const {
  const int64_t n = shape.element_count();
  const BitPacker packer(kFieldBits);
  return NumChunks(shape) * static_cast<int64_t>(sizeof(float)) +
         packer.WordCount(n) * static_cast<int64_t>(sizeof(uint32_t)) +
         codec_internal::kWireChecksumBytes;
}

LPSGD_HOT_PATH
void TernGradCodec::Encode(const float* grad, const Shape& shape,
                           uint64_t stochastic_tag,
                           std::vector<float>* /*error*/,
                           CodecWorkspace* workspace,
                           std::vector<uint8_t>* out) const {
  obs::Span span(codec_internal::EncodeSinks(
      "quant/terngrad/encode_calls", &workspace->phases, out));
  const int64_t n = shape.element_count();
  const int64_t chunks = NumChunks(shape);
  const int64_t len = ChunkLength(n);
  const CounterRng stream(seed_, stochastic_tag);

  uint8_t* blob = quant_internal::EnsureSize(
      out, static_cast<size_t>(EncodedSizeBytes(shape)));
  float* scales = MutableFloatsAt(blob, 0);
  BitWriter writer(
      MutableWordsAt(blob, chunks * static_cast<int64_t>(sizeof(float))),
      kFieldBits);

  // The ternarize draw — P(|q| = scale) = min(|g|, threshold) / scale,
  // unbiased over the clipped gradient — runs through the runtime-
  // dispatched kernel table.
  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  const ElementwiseKernels& elementwise = ActiveElementwiseKernels();
  quant_simd::QuantizeArgs args;
  args.values = grad;
  args.stream_seed = stream.stream_seed();
  args.bits = kFieldBits;
  args.writer = &writer;
  for (int64_t b = 0; b < chunks; ++b) {
    const int64_t begin = b * len;
    const int64_t end = std::min(begin + len, n);

    double max_abs = 0.0;
    double threshold = std::numeric_limits<double>::infinity();
    if (clip_ > 0.0) {
      // One pass gathers both the max magnitude (the scalar) and the sum
      // of squares (for the clipping threshold clip * RMS). The fused sum
      // is order-sensitive, so this path stays scalar in every dispatch
      // mode.
      double sum_sq = 0.0;
      for (int64_t i = begin; i < end; ++i) {
        const double g = grad[i];
        max_abs = std::max(max_abs, std::abs(g));
        sum_sq += g * g;
      }
      threshold =
          clip_ * std::sqrt(sum_sq / static_cast<double>(end - begin));
    } else {
      max_abs = elementwise.max_abs_f32(grad + begin, end - begin);
    }
    const double scale = std::min(max_abs, threshold);
    scales[b] = static_cast<float>(scale);
    if (scale == 0.0) {
      // Zero fields decode to exact zeros; keep the stream position.
      for (int64_t i = begin; i < end; ++i) writer.Put(0u);
      continue;
    }

    args.begin = begin;
    args.end = end;
    args.scale = scale;
    args.threshold = threshold;
    kernels.terngrad_quantize(args);
  }
  writer.Finish();
  codec_internal::SealWireBlob(
      blob, EncodedSizeBytes(shape) - codec_internal::kWireChecksumBytes);
}

LPSGD_HOT_PATH
Status TernGradCodec::Decode(const uint8_t* bytes, int64_t num_bytes,
                             const Shape& shape, CodecWorkspace* workspace,
                             float* out) const {
  obs::Span span(codec_internal::DecodeSinks(
      "quant/terngrad/decode_calls", &workspace->phases));
  const int64_t n = shape.element_count();
  LPSGD_RETURN_IF_ERROR(codec_internal::VerifyWireBlob(
      "terngrad", bytes, num_bytes, EncodedSizeBytes(shape)));
  const int64_t chunks = NumChunks(shape);
  const int64_t len = ChunkLength(n);
  const float* scales = FloatsAt(bytes, 0);
  BitReader reader(
      WordsAt(bytes, chunks * static_cast<int64_t>(sizeof(float))),
      kFieldBits);

  const quant_simd::CodecKernels& kernels = quant_simd::ActiveCodecKernels();
  quant_simd::DequantizeArgs args;
  args.reader = &reader;
  args.bits = kFieldBits;
  args.out = out;
  for (int64_t b = 0; b < chunks; ++b) {
    args.begin = b * len;
    args.end = std::min(args.begin + len, n);
    args.scale = scales[b];
    kernels.terngrad_dequantize(args);
  }
  return OkStatus();
}

CodecSpec TernGradSpec(int64_t bucket_size, double clip) {
  CodecSpec spec;
  spec.kind = CodecKind::kTernGrad;
  spec.bits = 2;
  spec.bucket_size = bucket_size;
  spec.clip = clip;
  return spec;
}

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkTernGradCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily TernGradFamily() {
  CodecFamily family;
  family.kind = CodecKind::kTernGrad;
  family.name = "terngrad";
  family.help = "ternary {-s,0,+s} with per-matrix scalar (alias: tern); "
                "optional bucket= and clip= (multiple of chunk RMS)";
  family.keys = {"bucket", "clip"};
  family.matches = [](const std::string& head) {
    return head == "terngrad" || head == "tern";
  };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* params) -> StatusOr<CodecSpec> {
    CodecSpec spec = TernGradSpec();
    LPSGD_RETURN_IF_ERROR(TakeBucketParam(params, &spec));
    if (const std::string* clip = params->Take("clip")) {
      LPSGD_ASSIGN_OR_RETURN(spec.clip,
                             ParseDoubleParam(*clip, "TernGrad clip"));
      if (spec.clip <= 0.0) {
        return InvalidArgumentError(StrCat("bad TernGrad clip: ", *clip));
      }
    }
    return spec;
  };
  family.create = [](const CodecSpec& spec)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    if (spec.bucket_size < 0) {
      return InvalidArgumentError(StrCat(
          "TernGrad bucket size must be >= 0, got ", spec.bucket_size));
    }
    if (spec.clip < 0.0) {
      return InvalidArgumentError(
          StrCat("TernGrad clip must be >= 0, got ", spec.clip));
    }
    return std::unique_ptr<GradientCodec>(
        new TernGradCodec(spec.bucket_size, spec.clip, spec.seed));
  };
  family.label = [](const CodecSpec& spec) {
    std::string label = spec.bucket_size > 0
                            ? StrCat("TernGrad (b=", spec.bucket_size, ")")
                            : std::string("TernGrad");
    if (spec.clip > 0.0) {
      label = StrCat(label, " clip=", FormatDouble(spec.clip, 1));
    }
    return label;
  };
  family.short_label = [](const CodecSpec& /*spec*/) {
    return std::string("T");
  };
  return family;
}

const CodecRegistrar registrar(TernGradFamily());

}  // namespace
}  // namespace lpsgd
