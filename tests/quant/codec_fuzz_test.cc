// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// Randomized property sweep across every codec: for random shapes and
// gradient contents (including adversarial ones), the wire contract must
// hold — blob size equals EncodedSizeBytes, Decode accepts exactly that
// blob, decoded values are finite and bounded by the input's magnitude
// range, and sign structure is preserved where the codec guarantees it.
#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "quant/codec.h"
#include "tensor/tensor.h"

namespace lpsgd {
namespace {

std::vector<CodecSpec> AllSpecs() {
  return {FullPrecisionSpec(),
          OneBitSgdSpec(),
          OneBitSgdReshapedSpec(7),
          OneBitSgdReshapedSpec(64),
          QsgdSpec(2),
          QsgdSpec(4),
          QsgdSpec(8),
          QsgdSpec(16),
          [] {
            CodecSpec s = QsgdSpec(4);
            s.norm = QsgdNorm::kL2;
            return s;
          }(),
          [] {
            CodecSpec s = QsgdSpec(4);
            s.levels = QsgdLevelScheme::kSymmetric;
            return s;
          }(),
          TopKSpec(0.1)};
}

Shape RandomShape(Rng* rng) {
  switch (rng->NextInt(0, 3)) {
    case 0:
      return Shape({rng->NextInt(1, 2000)});
    case 1:
      return Shape({rng->NextInt(1, 12), rng->NextInt(1, 300)});
    case 2:
      return Shape({rng->NextInt(1, 8), rng->NextInt(1, 8),
                    rng->NextInt(1, 30)});
    default:
      return Shape({rng->NextInt(1, 50), rng->NextInt(1, 50)});
  }
}

void FillAdversarial(Rng* rng, Tensor* grad) {
  switch (rng->NextInt(0, 4)) {
    case 0:
      grad->FillGaussian(rng, 1.0f);
      break;
    case 1:
      grad->SetZero();
      break;
    case 2:
      grad->Fill(rng->NextFloat() - 0.5f);  // constant
      break;
    case 3:
      grad->FillGaussian(rng, 1e-20f);  // denormal-range values
      break;
    default:
      grad->FillGaussian(rng, 1e15f);  // huge values
      break;
  }
}

TEST(CodecFuzzTest, WireContractHoldsForRandomInputs) {
  Rng rng(0xf02211);
  const auto specs = AllSpecs();
  for (int trial = 0; trial < 200; ++trial) {
    const CodecSpec& spec =
        specs[static_cast<size_t>(rng.NextUint64(specs.size()))];
    auto codec = spec.Create();
    ASSERT_TRUE(codec.ok());

    const Shape shape = RandomShape(&rng);
    Tensor grad(shape);
    FillAdversarial(&rng, &grad);
    const int64_t n = shape.element_count();

    std::vector<float> error(
        (*codec)->UsesErrorFeedback() ? static_cast<size_t>(n) : 0, 0.0f);
    std::vector<float>* error_ptr =
        (*codec)->UsesErrorFeedback() ? &error : nullptr;

    std::vector<uint8_t> blob;
    (*codec)->Encode(grad.data(), shape, rng.NextUint64(), error_ptr,
                     &blob);
    ASSERT_EQ(static_cast<int64_t>(blob.size()),
              (*codec)->EncodedSizeBytes(shape))
        << spec.Label() << " shape " << shape.ToString();

    std::vector<float> decoded(static_cast<size_t>(n));
    ASSERT_TRUE((*codec)
                    ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                             shape, decoded.data())
                    .ok())
        << spec.Label() << " trial " << trial;

    // Every codec's decoded magnitudes are bounded by its chunk scale,
    // which never exceeds the gradient's L2 norm.
    const double bound = grad.L2Norm() * 1.0001 + 1e-30;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(std::isfinite(decoded[static_cast<size_t>(i)]))
          << spec.Label() << " trial " << trial << " i=" << i;
      ASSERT_LE(std::abs(decoded[static_cast<size_t>(i)]), bound)
          << spec.Label() << " trial " << trial << " i=" << i;
    }
    if ((*codec)->UsesErrorFeedback()) {
      for (float e : error) {
        ASSERT_TRUE(std::isfinite(e)) << spec.Label();
      }
    }
  }
}

TEST(CodecFuzzTest, DeterministicGivenSameInputsAndTag) {
  Rng rng(0xdede);
  for (const CodecSpec& spec : AllSpecs()) {
    auto codec = spec.Create();
    ASSERT_TRUE(codec.ok());
    const Shape shape({13, 31});
    Tensor grad(shape);
    grad.FillGaussian(&rng, 1.0f);

    auto encode_once = [&] {
      std::vector<float> error(
          (*codec)->UsesErrorFeedback()
              ? static_cast<size_t>(shape.element_count())
              : 0,
          0.0f);
      std::vector<uint8_t> blob;
      (*codec)->Encode(grad.data(), shape, 77,
                       (*codec)->UsesErrorFeedback() ? &error : nullptr,
                       &blob);
      return blob;
    };
    EXPECT_EQ(encode_once(), encode_once()) << spec.Label();
  }
}

TEST(CodecFuzzTest, QuantizedDecodeIsIdempotentForDeterministicCodecs) {
  // 1bitSGD without error feedback: quantizing an already-quantized vector
  // reproduces it exactly (the averages of a two-valued vector are those
  // values).
  CodecSpec spec = OneBitSgdReshapedSpec(32);
  spec.error_feedback = false;
  auto codec = spec.Create();
  ASSERT_TRUE(codec.ok());

  Rng rng(4);
  const Shape shape({96});
  Tensor grad(shape);
  grad.FillGaussian(&rng, 1.0f);

  std::vector<uint8_t> blob;
  (*codec)->Encode(grad.data(), shape, 0, nullptr, &blob);
  std::vector<float> once(96);
  ASSERT_TRUE((*codec)
                  ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                           shape, once.data())
                  .ok());

  (*codec)->Encode(once.data(), shape, 1, nullptr, &blob);
  std::vector<float> twice(96);
  ASSERT_TRUE((*codec)
                  ->Decode(blob.data(), static_cast<int64_t>(blob.size()),
                           shape, twice.data())
                  .ok());
  for (int i = 0; i < 96; ++i) {
    EXPECT_FLOAT_EQ(once[static_cast<size_t>(i)],
                    twice[static_cast<size_t>(i)])
        << i;
  }
}

}  // namespace
}  // namespace lpsgd
