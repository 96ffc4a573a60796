#pragma once

// Clean counterpart: a conforming header — must produce no findings.

#include <stdexcept>

#define FIXTURE_CHECK(cond)                       \
  do {                                            \
    if (!(cond)) {                                \
      throw std::runtime_error("check failed");   \
    }                                             \
  } while (false)

namespace fixture {
inline void check(int v) { FIXTURE_CHECK(v >= 0); }
}  // namespace fixture
