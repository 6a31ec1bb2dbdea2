// Interning of 64-bit VIDs into dense 32-bit handles. The engine interns
// every tuple VID it registers; a converging network re-derives the same
// tuples over and over, and interning gives each distinct VID a small dense
// handle once, so the number of distinct vertices (size()) and the
// re-touch rate (hits()) are directly observable. Leaf header: safe to
// include from the runtime layer (depends only on common/).
#ifndef NETTRAILS_PROVENANCE_INTERNER_H_
#define NETTRAILS_PROVENANCE_INTERNER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/tuple.h"

namespace nettrails {
namespace provenance {

class VidInterner {
 public:
  /// Dense handle, assigned in first-intern order starting at 0.
  using Handle = uint32_t;
  static constexpr Handle kInvalidHandle = 0xffffffffu;

  /// Handle of `vid`, allocating one on first sight. Re-interning a known
  /// VID is a hit (the hot path the interner exists for).
  Handle Intern(Vid vid) {
    auto [it, inserted] =
        handles_.emplace(vid, static_cast<Handle>(vids_.size()));
    if (inserted) {
      vids_.push_back(vid);
    } else {
      ++hits_;
    }
    return it->second;
  }

  /// Handle of `vid` if already interned, else kInvalidHandle. Never
  /// allocates and does not count as a hit (read-side lookup).
  Handle Find(Vid vid) const {
    auto it = handles_.find(vid);
    return it == handles_.end() ? kInvalidHandle : it->second;
  }

  /// The VID a handle stands for. `h` must come from this interner.
  Vid ToVid(Handle h) const { return vids_[h]; }

  /// Distinct VIDs interned.
  size_t size() const { return vids_.size(); }

  /// Intern() calls that found an existing entry.
  uint64_t hits() const { return hits_; }

 private:
  std::unordered_map<Vid, Handle> handles_;
  std::vector<Vid> vids_;
  uint64_t hits_ = 0;
};

}  // namespace provenance
}  // namespace nettrails

#endif  // NETTRAILS_PROVENANCE_INTERNER_H_
