// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "tensor/shape.h"

#include <algorithm>

#include "base/logging.h"
#include "base/strings.h"

namespace lpsgd {

Shape::Shape(std::initializer_list<int64_t> dims) : dims_(dims) {
  for (int64_t d : dims_) CHECK_GE(d, 0);
}

Shape::Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
  for (int64_t d : dims_) CHECK_GE(d, 0);
}

void Shape::Assign(std::initializer_list<int64_t> dims) {
  for (int64_t d : dims) CHECK_GE(d, 0);
  dims_.assign(dims);
}

void Shape::Assign(const std::vector<int64_t>& dims) {
  for (int64_t d : dims) CHECK_GE(d, 0);
  dims_.assign(dims.begin(), dims.end());
}

void Shape::Assign(int64_t leading, const Shape& rest) {
  CHECK_GE(leading, 0);
  dims_.resize(rest.dims_.size() + 1);
  dims_[0] = leading;
  std::copy(rest.dims_.begin(), rest.dims_.end(), dims_.begin() + 1);
}

int64_t Shape::dim(int i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, ndim());
  return dims_[i];
}

int64_t Shape::element_count() const {
  int64_t count = 1;
  for (int64_t d : dims_) count *= d;
  return count;
}

int64_t Shape::cols() const {
  if (ndim() <= 1) return 1;
  int64_t count = 1;
  for (int i = 1; i < ndim(); ++i) count *= dims_[i];
  return count;
}

std::string Shape::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(dims_.size());
  for (int64_t d : dims_) parts.push_back(StrCat(d));
  return StrCat("[", StrJoin(parts, " x "), "]");
}

}  // namespace lpsgd
