// Stale-suppression fixture: all three annotations below suppress nothing —
// two sit on perfectly clean lines (one structural rule, one textual rule),
// the third names a rule that does not exist.  Expected: ssr-analyze flags
// [stale-suppression] three times.
#include <map>

namespace fixture {

class Ledger {
 public:
  void add(int id, double w) { weights_[id] = w; }
  int count() const { return 1; }  // ssr-analyze: allow(no-assert)

 private:
  std::map<int, double> weights_;  // ssr-analyze: allow(pointer-keyed-order)
  double total_ = 0.0;  // ssr-analyze: allow(no-such-rule)
};

}  // namespace fixture
