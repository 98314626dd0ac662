//===- SimdEnv.h - Scoped SHACKLE_NATIVE_SIMD for tests ---------*- C++ -*-===//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SHACKLE_NATIVE_SIMD is the one setter of the native tier's vector level
/// (kernels/SimdGemm.h). A test that needs a level (scalar routing for a
/// bitwise check, say), or the unforced default on a CI leg that forces
/// one, sets it for its own scope. The CLI it runs through popen inherits
/// the setting.
///
//===----------------------------------------------------------------------===//

#ifndef SHACKLE_TESTS_SIMDENV_H
#define SHACKLE_TESTS_SIMDENV_H

#include <cstdlib>
#include <optional>
#include <string>

namespace shackle {

/// Sets SHACKLE_NATIVE_SIMD to \p Value, or unsets it when \p Value is null,
/// and restores the previous state when the scope ends.
class ScopedSimdEnv {
public:
  explicit ScopedSimdEnv(const char *Value) {
    if (const char *V = std::getenv("SHACKLE_NATIVE_SIMD"))
      Saved = V;
    if (Value)
      setenv("SHACKLE_NATIVE_SIMD", Value, 1);
    else
      unsetenv("SHACKLE_NATIVE_SIMD");
  }
  ~ScopedSimdEnv() {
    if (Saved)
      setenv("SHACKLE_NATIVE_SIMD", Saved->c_str(), 1);
    else
      unsetenv("SHACKLE_NATIVE_SIMD");
  }
  ScopedSimdEnv(const ScopedSimdEnv &) = delete;
  ScopedSimdEnv &operator=(const ScopedSimdEnv &) = delete;

private:
  std::optional<std::string> Saved;
};

} // namespace shackle

#endif // SHACKLE_TESTS_SIMDENV_H
