// Clean counterpart: failures throw through a check macro; the words
// assert( and abort( appear only in comments, string literals and
// static_assert, which [no-assert] must not flag.
// Expected: ssr-analyze reports nothing.
#include <stdexcept>

#define FIXTURE_CHECK(cond)                     \
  do {                                          \
    if (!(cond)) {                              \
      throw std::runtime_error("assert(cond)"); \
    }                                           \
  } while (false)

namespace fixture {

static_assert(sizeof(int) >= 2, "abort() is never called here");

inline void check(int v) {
  FIXTURE_CHECK(v >= 0);  // not assert(v >= 0)
}

}  // namespace fixture
