// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
//
// The codec x engine test matrix, enumerated from the codec registry: one
// cell per registered family over MPI and one over NCCL. Suites that must
// hold for every codec derive from RegistryCodecTest and instantiate over
// RegistryCodecCells(), so a new family is covered without editing them.
// A registered family missing from the spec table below still gets its
// cells, and RegistryCodecTest fails them by name.
#ifndef LPSGD_TESTS_TESTING_CODEC_MATRIX_H_
#define LPSGD_TESTS_TESTING_CODEC_MATRIX_H_

#include <cctype>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/strings.h"
#include "comm/allreduce.h"
#include "quant/codec.h"
#include "quant/registry.h"

namespace lpsgd {

struct CodecCell {
  std::string name;  // gtest parameter name, e.g. "Ecq4Mpi"
  CodecSpec codec;
  CommPrimitive primitive = CommPrimitive::kMpi;
  // Why the cell has no usable spec; empty when it has one.
  std::string problem;
};

// One representative spec per registered family.
struct CodecFamilySpec {
  const char* family;
  const char* spec;
  const char* name;
};

inline constexpr CodecFamilySpec kCodecFamilySpecs[] = {
    {"32bit", "fp32", "Fp32"},
    {"q<bits>", "q4", "Qsgd4"},
    {"aq<bits>", "aq4", "Aqsgd4"},
    {"nuq<bits>", "nuq4", "Nuqsgd4"},
    {"ecq<bits>", "ecq4", "Ecq4"},
    {"1bit", "1bit", "OneBit"},
    {"1bit*", "1bit*", "OneBitReshaped"},
    {"terngrad", "terngrad", "TernGrad"},
    {"topk", "topk:0.25", "Topk"},
};

inline std::vector<CodecCell> RegistryCodecCells() {
  std::vector<CodecCell> cells;
  for (const std::string& family : CodecRegistry::Global().Names()) {
    const CodecFamilySpec* mapping = nullptr;
    for (const CodecFamilySpec& candidate : kCodecFamilySpecs) {
      if (family == candidate.family) mapping = &candidate;
    }
    std::string stem;
    std::string problem;
    CodecSpec codec;
    if (mapping == nullptr) {
      for (char c : family) {
        if (std::isalnum(static_cast<unsigned char>(c))) stem += c;
      }
      stem = StrCat("Unmapped_", stem);
      problem = StrCat("codec family \"", family,
                       "\" is registered but has no spec in "
                       "tests/testing/codec_matrix.h");
    } else {
      stem = mapping->name;
      auto parsed = CodecSpec::Parse(mapping->spec);
      if (parsed.ok()) {
        codec = *parsed;
      } else {
        problem = StrCat("spec \"", mapping->spec, "\" for family \"",
                         family, "\" does not parse: ",
                         parsed.status().ToString());
      }
    }
    for (CommPrimitive primitive :
         {CommPrimitive::kMpi, CommPrimitive::kNccl}) {
      cells.push_back(CodecCell{
          StrCat(stem, primitive == CommPrimitive::kMpi ? "Mpi" : "Nccl"),
          codec, primitive, problem});
    }
  }
  return cells;
}

// gtest prints a failing cell by name instead of as raw bytes.
inline void PrintTo(const CodecCell& cell, std::ostream* os) {
  *os << cell.name;
}

inline std::string CodecCellName(
    const ::testing::TestParamInfo<CodecCell>& info) {
  return info.param.name;
}

class RegistryCodecTest : public ::testing::TestWithParam<CodecCell> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(GetParam().problem.empty()) << GetParam().problem;
  }
};

}  // namespace lpsgd

#endif  // LPSGD_TESTS_TESTING_CODEC_MATRIX_H_
