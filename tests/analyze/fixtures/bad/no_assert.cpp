// Seeded-bug fixture: assert() and abort() must both trip [no-assert].
#include <cassert>
#include <cstdlib>

namespace fixture {

inline void check(int v) {
  assert(v >= 0);
  if (v > 100) {
    std::abort();
  }
}

}  // namespace fixture
