#include "src/fs/fsck.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>

#include "src/fs/journal.h"
#include "src/fs/layout.h"

namespace solros {
namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }
constexpr uint64_t kBitsPerBlock = uint64_t{kFsBlockSize} * 8;

bool BitGet(const std::vector<uint8_t>& bits, uint64_t index) {
  return (bits[index >> 3] >> (index & 7)) & 1;
}

// Per-code cap so a corrupted bitmap cannot spray thousands of identical
// findings; the suppressed tail is summarized at the end.
constexpr uint64_t kMaxFindingsPerCode = 8;

// What the inode scan remembers for the later directory walk.
struct InodeInfo {
  uint32_t mode = 0;
  uint32_t nlink = 0;
  uint64_t size = 0;
  std::vector<FsExtent> extents;
  uint64_t dirent_refs = 0;
};

class Checker {
 public:
  explicit Checker(BlockStore* store) : store_(store) {}

  Task<Status> Run() {
    SOLROS_CO_RETURN_IF_ERROR(co_await CheckSuper());
    if (fatal_) {
      Finish();
      co_return OkStatus();
    }
    SOLROS_CO_RETURN_IF_ERROR(co_await CheckJournalSuper());
    SOLROS_CO_RETURN_IF_ERROR(co_await LoadBitmaps());
    SOLROS_CO_RETURN_IF_ERROR(co_await ScanInodes());
    CheckBlockAccounting();
    SOLROS_CO_RETURN_IF_ERROR(co_await WalkNamespace());
    CheckLinkCounts();
    Finish();
    co_return OkStatus();
  }

  FsckReport report;

 private:
  void Add(const std::string& code, const std::string& message) {
    if (counts_[code]++ < kMaxFindingsPerCode) {
      report.findings.push_back(FsckFinding{code, message});
    }
  }

  void Finish() {
    for (const auto& [code, n] : counts_) {
      if (n > kMaxFindingsPerCode) {
        report.findings.push_back(FsckFinding{
            code, "... " + std::to_string(n - kMaxFindingsPerCode) +
                      " further findings suppressed (" + std::to_string(n) +
                      " total)"});
      }
    }
  }

  Task<Status> CheckSuper() {
    std::vector<uint8_t> block(kFsBlockSize);
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(0, 1, block));
    std::memcpy(&sb_, block.data(), sizeof(sb_));
    if (sb_.magic != kFsMagic || sb_.version != kFsVersion ||
        sb_.block_size != kFsBlockSize) {
      Add("super.bad-magic", "superblock magic/version/block-size invalid");
      fatal_ = true;
      co_return OkStatus();
    }
    // Geometry must be exactly what Format lays down: contiguous regions
    // in order, sized for the counts the superblock itself claims.
    bool ok = sb_.block_bitmap_start == 1 &&
              sb_.block_bitmap_blocks ==
                  CeilDiv(sb_.total_blocks, kBitsPerBlock) &&
              sb_.inode_bitmap_start ==
                  sb_.block_bitmap_start + sb_.block_bitmap_blocks &&
              sb_.inode_bitmap_blocks ==
                  CeilDiv(sb_.inode_count, kBitsPerBlock) &&
              sb_.inode_table_start ==
                  sb_.inode_bitmap_start + sb_.inode_bitmap_blocks &&
              sb_.inode_table_blocks ==
                  CeilDiv(sb_.inode_count, kInodesPerBlock);
    uint64_t after_table = sb_.inode_table_start + sb_.inode_table_blocks;
    if (sb_.journal_blocks != 0) {
      ok = ok && sb_.journal_start == after_table &&
           sb_.data_start == after_table + sb_.journal_blocks;
    } else {
      ok = ok && sb_.journal_start == 0 && sb_.data_start == after_table;
    }
    ok = ok && sb_.data_start < sb_.total_blocks &&
         sb_.total_blocks <= store_->block_count();
    if (!ok) {
      Add("super.bad-geometry", "superblock region layout inconsistent");
      fatal_ = true;
    }
    co_return OkStatus();
  }

  Task<Status> CheckJournalSuper() {
    if (sb_.journal_blocks == 0) {
      co_return OkStatus();
    }
    std::vector<uint8_t> block(kFsBlockSize);
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(sb_.journal_start, 1,
                                                    block));
    JournalSuper js;
    std::memcpy(&js, block.data(), sizeof(js));
    if (js.magic != kJournalSuperMagic || js.version != kJournalVersion ||
        js.capacity != sb_.journal_blocks - 1 || js.head >= js.capacity ||
        js.sequence == 0) {
      Add("journal.bad-super", "journal superblock invalid");
    }
    co_return OkStatus();
  }

  Task<Status> LoadBitmaps() {
    block_bitmap_.assign(sb_.block_bitmap_blocks * kFsBlockSize, 0);
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(
        sb_.block_bitmap_start,
        static_cast<uint32_t>(sb_.block_bitmap_blocks), block_bitmap_));
    inode_bitmap_.assign(sb_.inode_bitmap_blocks * kFsBlockSize, 0);
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(
        sb_.inode_bitmap_start,
        static_cast<uint32_t>(sb_.inode_bitmap_blocks), inode_bitmap_));
    // Every block below data_start belongs to the file system itself
    // (superblock, bitmaps, inode table, journal).
    refcount_.assign(sb_.total_blocks, 0);
    for (uint64_t b = 0; b < sb_.data_start; ++b) {
      refcount_[b] = 1;
    }
    co_return OkStatus();
  }

  void Reference(uint64_t block) {
    if (refcount_[block]++ == 0) {
      ++report.referenced_blocks;
    }
  }

  Task<Status> ScanInodes() {
    std::vector<uint8_t> table(kFsBlockSize);
    std::vector<uint8_t> indirect(kFsBlockSize);
    for (uint64_t tb = 0; tb < sb_.inode_table_blocks; ++tb) {
      SOLROS_CO_RETURN_IF_ERROR(
          co_await store_->Read(sb_.inode_table_start + tb, 1, table));
      for (uint32_t slot = 0; slot < kInodesPerBlock; ++slot) {
        uint64_t ino = tb * kInodesPerBlock + slot + 1;
        if (ino > sb_.inode_count) {
          break;
        }
        DiskInode inode = {};
        // Only the on-disk prefix; the in-memory cache field stays zero.
        std::memcpy(static_cast<void*>(&inode),
                    table.data() + slot * kInodeSize, kInodeSize);
        bool marked = BitGet(inode_bitmap_, ino - 1);
        if (inode.mode == 0) {
          if (marked) {
            Add("inode.marked-but-free",
                "ino " + std::to_string(ino) +
                    " marked allocated but its slot is free");
          }
          continue;
        }
        if (!marked) {
          Add("inode.not-marked",
              "ino " + std::to_string(ino) +
                  " in use but free in the inode bitmap");
        }
        ++report.inodes_in_use;
        InodeInfo info;
        info.mode = inode.mode;
        info.nlink = inode.nlink;
        info.size = inode.size;
        if (inode.IsDir()) {
          ++report.dirs;
        } else if (inode.IsFile()) {
          ++report.files;
        } else {
          Add("inode.bad-mode", "ino " + std::to_string(ino) +
                                    " has mode " + std::to_string(inode.mode));
        }
        if (inode.extent_count > kMaxExtentsPerFile) {
          Add("inode.extent-overflow",
              "ino " + std::to_string(ino) + " claims " +
                  std::to_string(inode.extent_count) + " extents");
          inodes_[ino] = std::move(info);
          continue;
        }
        uint32_t direct =
            std::min<uint32_t>(inode.extent_count, kDirectExtents);
        for (uint32_t i = 0; i < direct; ++i) {
          info.extents.push_back(inode.direct[i]);
        }
        if (inode.extent_count > kDirectExtents) {
          if (inode.indirect_block == 0) {
            Add("inode.missing-indirect",
                "ino " + std::to_string(ino) +
                    " overflows direct extents with no indirect block");
          } else if (inode.indirect_block < sb_.data_start ||
                     inode.indirect_block >= sb_.total_blocks) {
            Add("inode.indirect-out-of-bounds",
                "ino " + std::to_string(ino) + " indirect block " +
                    std::to_string(inode.indirect_block));
          } else {
            Reference(inode.indirect_block);
            SOLROS_CO_RETURN_IF_ERROR(
                co_await store_->Read(inode.indirect_block, 1, indirect));
            for (uint32_t i = kDirectExtents; i < inode.extent_count; ++i) {
              FsExtent e;
              std::memcpy(&e,
                          indirect.data() +
                              (i - kDirectExtents) * sizeof(FsExtent),
                          sizeof(FsExtent));
              info.extents.push_back(e);
            }
          }
        } else if (inode.indirect_block != 0) {
          Add("inode.stray-indirect",
              "ino " + std::to_string(ino) +
                  " keeps an indirect block with only " +
                  std::to_string(inode.extent_count) + " extents");
        }
        uint64_t allocated = 0;
        for (const FsExtent& e : info.extents) {
          if (e.len == 0) {
            Add("inode.empty-extent",
                "ino " + std::to_string(ino) + " has a zero-length extent");
            continue;
          }
          if (e.start < sb_.data_start ||
              e.start + e.len > sb_.total_blocks) {
            Add("inode.extent-out-of-bounds",
                "ino " + std::to_string(ino) + " extent [" +
                    std::to_string(e.start) + ", +" + std::to_string(e.len) +
                    ")");
            continue;
          }
          for (uint64_t b = e.start; b < e.start + e.len; ++b) {
            Reference(b);
          }
          allocated += e.len;
        }
        if (inode.size > allocated * kFsBlockSize) {
          Add("inode.size-beyond-alloc",
              "ino " + std::to_string(ino) + " size " +
                  std::to_string(inode.size) + " exceeds " +
                  std::to_string(allocated) + " allocated blocks");
        }
        inodes_[ino] = std::move(info);
      }
    }
    co_return OkStatus();
  }

  void CheckBlockAccounting() {
    for (uint64_t b = 0; b < sb_.data_start; ++b) {
      if (!BitGet(block_bitmap_, b)) {
        Add("bitmap.meta-unmarked",
            "metadata block " + std::to_string(b) + " free in bitmap");
      }
    }
    for (uint64_t b = sb_.data_start; b < sb_.total_blocks; ++b) {
      bool marked = BitGet(block_bitmap_, b);
      uint32_t refs = refcount_[b];
      if (refs > 1) {
        Add("bitmap.double-alloc", "block " + std::to_string(b) +
                                       " referenced " + std::to_string(refs) +
                                       " times");
      }
      if (refs > 0 && !marked) {
        Add("bitmap.not-marked",
            "block " + std::to_string(b) + " referenced but free in bitmap");
      }
      if (refs == 0 && marked) {
        Add("bitmap.leak",
            "block " + std::to_string(b) + " marked but unreferenced");
      }
    }
    uint64_t free_blocks = 0;
    for (uint64_t b = 0; b < sb_.total_blocks; ++b) {
      free_blocks += BitGet(block_bitmap_, b) ? 0 : 1;
    }
    if (free_blocks != sb_.free_blocks) {
      Add("super.free-blocks-mismatch",
          "superblock says " + std::to_string(sb_.free_blocks) +
              " free blocks, bitmap has " + std::to_string(free_blocks));
    }
    uint64_t free_inodes = 0;
    for (uint64_t i = 0; i < sb_.inode_count; ++i) {
      free_inodes += BitGet(inode_bitmap_, i) ? 0 : 1;
    }
    if (free_inodes != sb_.free_inodes) {
      Add("super.free-inodes-mismatch",
          "superblock says " + std::to_string(sb_.free_inodes) +
              " free inodes, bitmap has " + std::to_string(free_inodes));
    }
  }

  // Reads the first `info.size` bytes of an inode through its extent list.
  Task<Result<std::vector<uint8_t>>> ReadContents(const InodeInfo& info) {
    std::vector<uint8_t> out(CeilDiv(info.size, kFsBlockSize) * kFsBlockSize);
    uint64_t blocks_needed = out.size() / kFsBlockSize;
    uint64_t filled = 0;
    for (const FsExtent& e : info.extents) {
      if (filled >= blocks_needed) {
        break;
      }
      if (e.len == 0 || e.start < sb_.data_start ||
          e.start + e.len > sb_.total_blocks) {
        continue;  // already reported by the inode scan
      }
      uint64_t n = std::min<uint64_t>(e.len, blocks_needed - filled);
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(
          e.start, static_cast<uint32_t>(n),
          {out.data() + filled * kFsBlockSize,
           static_cast<size_t>(n * kFsBlockSize)}));
      filled += n;
    }
    out.resize(info.size);
    co_return out;
  }

  Task<Status> WalkNamespace() {
    auto root = inodes_.find(kRootInode);
    if (root == inodes_.end() || (root->second.mode & kModeDir) == 0) {
      Add("root.invalid", "root inode missing or not a directory");
      co_return OkStatus();
    }
    std::deque<uint64_t> queue{kRootInode};
    std::map<uint64_t, bool> visited{{kRootInode, true}};
    while (!queue.empty()) {
      uint64_t dir_ino = queue.front();
      queue.pop_front();
      InodeInfo& dir = inodes_[dir_ino];
      SOLROS_CO_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                                 co_await ReadContents(dir));
      for (size_t off = 0; off + sizeof(Dirent) <= bytes.size();
           off += sizeof(Dirent)) {
        Dirent entry;
        std::memcpy(&entry, bytes.data() + off, sizeof(entry));
        if (entry.ino == 0) {
          continue;
        }
        ++report.dirents;
        std::string where = "dir ino " + std::to_string(dir_ino) +
                            " entry \"" + entry.Name() + "\"";
        if (entry.name_len > kMaxFileName) {
          Add("dirent.bad-name", where + " has oversized name");
        }
        if (entry.ino > sb_.inode_count) {
          Add("dirent.bad-ino",
              where + " points at invalid ino " + std::to_string(entry.ino));
          continue;
        }
        auto target = inodes_.find(entry.ino);
        if (target == inodes_.end()) {
          Add("dirent.dangling", where + " points at unallocated ino " +
                                     std::to_string(entry.ino));
          continue;
        }
        if (entry.type != static_cast<uint8_t>(target->second.mode >> 12)) {
          Add("dirent.type-mismatch",
              where + " type tag disagrees with ino " +
                  std::to_string(entry.ino));
        }
        ++target->second.dirent_refs;
        if ((target->second.mode & kModeDir) != 0) {
          if (!visited[entry.ino]) {
            visited[entry.ino] = true;
            queue.push_back(entry.ino);
          }
        }
      }
    }
    co_return OkStatus();
  }

  void CheckLinkCounts() {
    for (const auto& [ino, info] : inodes_) {
      if (ino == kRootInode) {
        if (info.nlink != 2) {
          Add("inode.bad-root-nlink",
              "root nlink " + std::to_string(info.nlink) + ", want 2");
        }
        continue;
      }
      if ((info.mode & kModeDir) != 0) {
        // SolrosFS directories have no "." / ".." entries; a directory is
        // linked from exactly one parent and keeps nlink == 2.
        if (info.dirent_refs == 0) {
          Add("inode.unreachable",
              "dir ino " + std::to_string(ino) + " not referenced");
        } else if (info.dirent_refs > 1) {
          Add("dir.multiple-links",
              "dir ino " + std::to_string(ino) + " referenced " +
                  std::to_string(info.dirent_refs) + " times");
        }
        if (info.nlink != 2) {
          Add("inode.bad-dir-nlink", "dir ino " + std::to_string(ino) +
                                         " nlink " +
                                         std::to_string(info.nlink) +
                                         ", want 2");
        }
      } else {
        if (info.dirent_refs == 0) {
          Add("inode.unreachable",
              "ino " + std::to_string(ino) + " not referenced");
        }
        if (info.nlink != info.dirent_refs) {
          Add("inode.nlink-mismatch",
              "ino " + std::to_string(ino) + " nlink " +
                  std::to_string(info.nlink) + " but " +
                  std::to_string(info.dirent_refs) + " dirents");
        }
      }
    }
  }

  BlockStore* store_;
  SuperBlock sb_ = {};
  bool fatal_ = false;
  std::vector<uint8_t> block_bitmap_;
  std::vector<uint8_t> inode_bitmap_;
  std::vector<uint32_t> refcount_;
  std::map<uint64_t, InodeInfo> inodes_;
  std::map<std::string, uint64_t> counts_;
};

}  // namespace

std::string FsckReport::ToString() const {
  std::string out;
  for (const FsckFinding& f : findings) {
    out += f.code + ": " + f.message + "\n";
  }
  out += (clean() ? "fsck: clean" : "fsck: " +
                                        std::to_string(findings.size()) +
                                        " finding(s)");
  out += " (" + std::to_string(inodes_in_use) + " inodes, " +
         std::to_string(files) + " files, " + std::to_string(dirs) +
         " dirs, " + std::to_string(dirents) + " dirents, " +
         std::to_string(referenced_blocks) + " referenced blocks)\n";
  return out;
}

Task<Result<FsckReport>> RunFsck(BlockStore* store) {
  Checker checker(store);
  SOLROS_CO_RETURN_IF_ERROR(co_await checker.Run());
  co_return std::move(checker.report);
}

}  // namespace solros
