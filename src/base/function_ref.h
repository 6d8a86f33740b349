// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#ifndef LPSGD_BASE_FUNCTION_REF_H_
#define LPSGD_BASE_FUNCTION_REF_H_

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace lpsgd {

template <typename Signature>
class FunctionRef;

// A non-owning reference to a callable: one object pointer and one call
// thunk, never a heap allocation. It must not outlive the callable, so it
// suits parameters of calls that finish using it before they return (a
// blocking ParallelFor), where a std::function would copy a large-capture
// lambda to the heap on every call. Implicit, so a lambda converts at the
// call site.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& callable) noexcept
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(callable)))),
        call_(&Call<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  template <typename F>
  static R Call(void* object, Args... args) {
    return std::invoke(*static_cast<F*>(object), std::forward<Args>(args)...);
  }

  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace lpsgd

#endif  // LPSGD_BASE_FUNCTION_REF_H_
