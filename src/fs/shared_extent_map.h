// Versioned extent-map memo shared by the control-plane shards.
//
// The extent/allocation maps are the one piece of file-system state every
// proxy shard must see coherently: a read routed to shard A needs the
// extents that a write routed to shard B just allocated. SolrosFs itself
// stays the single source of truth; this structure is the explicitly
// scoped sharing protocol in front of it:
//
//   * a process-wide version counter per inode, bumped by the FS on every
//     extent mutation (StoreExtents, FreeInode) via its extent observer;
//   * a per-shard memo of Fiemap results tagged with the version they were
//     computed at. A lookup whose tag is stale misses; the shard re-runs
//     Fiemap (which may read the indirect extent block from the device)
//     and re-inserts.
//
// The memo is exact-key ((ino, offset, length) -> extents), which is what
// repeated reads of a hot shared region produce; it is bounded and clears
// wholesale when full (a memo, not a cache — correctness never depends on
// residency, only the version tags carry coherence).
#ifndef SOLROS_SRC_FS_SHARED_EXTENT_MAP_H_
#define SOLROS_SRC_FS_SHARED_EXTENT_MAP_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/fs/layout.h"

namespace solros {

class SharedExtentMap {
 public:
  // Bumps `ino`'s version; every shard's memoized mappings for it go
  // stale. Called by the FS extent observer on any allocation change.
  void Invalidate(uint64_t ino) {
    ++versions_[ino];
    ++invalidations_;
  }

  uint64_t Version(uint64_t ino) const {
    auto it = versions_.find(ino);
    return it == versions_.end() ? 0 : it->second;
  }

  uint64_t invalidations() const { return invalidations_; }

  // One shard's private memo over the shared version map.
  class ShardView {
   public:
    explicit ShardView(SharedExtentMap* shared) : shared_(shared) {}

    // The memoized extents for this exact query, or nullptr when absent
    // or stale. The pointer is valid until the next Insert.
    const std::vector<FsExtent>* Lookup(uint64_t ino, uint64_t offset,
                                        uint64_t length) {
      auto it = memo_.find(Key{ino, offset, length});
      if (it == memo_.end() ||
          it->second.version != shared_->Version(ino)) {
        return nullptr;
      }
      ++hits_;
      return &it->second.extents;
    }

    // Memoizes a Fiemap result. `version` is the inode's version when the
    // Fiemap started, so a mutation that landed while it ran leaves the
    // entry stale.
    void Insert(uint64_t ino, uint64_t offset, uint64_t length,
                uint64_t version, std::vector<FsExtent> extents) {
      if (memo_.size() >= kMaxEntries) {
        memo_.clear();  // coarse reset; the memo refills from live traffic
      }
      memo_[Key{ino, offset, length}] = Entry{version, std::move(extents)};
    }

    uint64_t hits() const { return hits_; }

   private:
    struct Key {
      uint64_t ino = 0;
      uint64_t offset = 0;
      uint64_t length = 0;
      bool operator<(const Key& o) const {
        return std::tie(ino, offset, length) <
               std::tie(o.ino, o.offset, o.length);
      }
    };
    struct Entry {
      uint64_t version = 0;
      std::vector<FsExtent> extents;
    };
    static constexpr size_t kMaxEntries = 4096;

    SharedExtentMap* shared_;
    std::map<Key, Entry> memo_;
    uint64_t hits_ = 0;
  };

 private:
  std::unordered_map<uint64_t, uint64_t> versions_;
  uint64_t invalidations_ = 0;
};

}  // namespace solros

#endif  // SOLROS_SRC_FS_SHARED_EXTENT_MAP_H_
