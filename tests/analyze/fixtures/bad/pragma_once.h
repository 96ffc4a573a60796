#ifndef FIXTURE_BAD_GUARD_H_
#define FIXTURE_BAD_GUARD_H_

// Seeded-bug fixture: an #ifndef guard instead of #pragma once trips
// [pragma-once].

namespace fixture {
inline int one() { return 1; }
}  // namespace fixture

#endif  // FIXTURE_BAD_GUARD_H_
