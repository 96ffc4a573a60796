// Suppression fixture: each pattern below would be a finding, but carries a
// justified allow annotation (same-line and line-above forms).
// Expected: ssr-analyze reports nothing — and no stale-suppression either,
// because every allow suppresses a live finding.
#include <cassert>
#include <map>

namespace fixture {

struct Node {
  int id;
};

inline void check(int v) {
  assert(v >= 0);  // ssr-analyze: allow(no-assert)
}

class Arena {
 public:
  void reset() {
    // ssr-analyze: allow(nondet-api)
    Node* scratch = new Node();
    scratch_ = scratch;
  }

 private:
  Node* scratch_ = nullptr;
  std::map<Node*, int> depth_;  // ssr-analyze: allow(pointer-keyed-order)
};

}  // namespace fixture
