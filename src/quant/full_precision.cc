// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "quant/full_precision.h"

#include <cstring>

#include "base/logging.h"
#include "base/thread_annotations.h"
#include "obs/span.h"
#include "quant/registry.h"
#include "quant/workspace.h"

namespace lpsgd {

int64_t FullPrecisionCodec::EncodedSizeBytes(const Shape& shape) const {
  return shape.element_count() * static_cast<int64_t>(sizeof(float)) +
         codec_internal::kWireChecksumBytes;
}

int64_t FullPrecisionCodec::NumChunks(const Shape& /*shape*/) const {
  return 0;
}

LPSGD_HOT_PATH
void FullPrecisionCodec::Encode(const float* grad, const Shape& shape,
                                uint64_t /*stochastic_tag*/,
                                std::vector<float>* /*error*/,
                                CodecWorkspace* workspace,
                                std::vector<uint8_t>* out) const {
  obs::Span span(codec_internal::EncodeSinks(
      "quant/full_precision/encode_calls", &workspace->phases, out));
  const int64_t payload =
      shape.element_count() * static_cast<int64_t>(sizeof(float));
  uint8_t* blob = quant_internal::EnsureSize(
      out, static_cast<size_t>(EncodedSizeBytes(shape)));
  std::memcpy(blob, grad, static_cast<size_t>(payload));
  codec_internal::SealWireBlob(blob, payload);
}

LPSGD_HOT_PATH
Status FullPrecisionCodec::Decode(const uint8_t* bytes, int64_t num_bytes,
                                  const Shape& shape,
                                  CodecWorkspace* workspace,
                                  float* out) const {
  obs::Span span(codec_internal::DecodeSinks(
      "quant/full_precision/decode_calls", &workspace->phases));
  const int64_t n = shape.element_count();
  LPSGD_RETURN_IF_ERROR(codec_internal::VerifyWireBlob(
      "full_precision", bytes, num_bytes, EncodedSizeBytes(shape)));
  std::memcpy(out, bytes, static_cast<size_t>(n) * sizeof(float));
  return OkStatus();
}

CodecSpec FullPrecisionSpec() { return CodecSpec{}; }

namespace codec_internal {
// Force-link anchor referenced by registry.cc (see kCodecFamilyLinkAnchor).
int LinkFullPrecisionCodecFamily() { return 0; }
}  // namespace codec_internal

namespace {

CodecFamily FullPrecisionFamily() {
  CodecFamily family;
  family.kind = CodecKind::kFullPrecision;
  family.name = "32bit";
  family.help = "full precision (alias: fp32)";
  family.matches = [](const std::string& head) {
    return head == "32bit" || head == "fp32";
  };
  family.parse = [](const std::string& /*head*/,
                    CodecParams* /*params*/) -> StatusOr<CodecSpec> {
    return FullPrecisionSpec();
  };
  family.create = [](const CodecSpec& /*spec*/)
      -> StatusOr<std::unique_ptr<GradientCodec>> {
    return std::unique_ptr<GradientCodec>(new FullPrecisionCodec());
  };
  family.label = [](const CodecSpec& /*spec*/) {
    return std::string("32bit");
  };
  family.short_label = [](const CodecSpec& /*spec*/) {
    return std::string("32bit");
  };
  return family;
}

const CodecRegistrar registrar(FullPrecisionFamily());

}  // namespace
}  // namespace lpsgd
