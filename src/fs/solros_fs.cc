#include "src/fs/solros_fs.h"

#include <algorithm>
#include <cstring>

#include "src/base/logging.h"

namespace solros {
namespace {

uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Bits per bitmap block.
constexpr uint64_t kBitsPerBlock = uint64_t{kFsBlockSize} * 8;

}  // namespace

SolrosFs::SolrosFs(BlockStore* store, Simulator* sim)
    : store_(store), sim_(sim), writeout_done_(sim) {
  CHECK(store != nullptr);
  CHECK_EQ(store->block_size(), kFsBlockSize);
}

Status SolrosFs::CheckMounted() const {
  if (!mounted_) {
    return FailedPreconditionError("file system not mounted");
  }
  return OkStatus();
}

bool SolrosFs::BitGet(const std::vector<uint8_t>& bits, uint64_t index) {
  return (bits[index >> 3] >> (index & 7)) & 1;
}

void SolrosFs::BitSet(std::vector<uint8_t>& bits, uint64_t index,
                      bool value) {
  if (value) {
    bits[index >> 3] |= static_cast<uint8_t>(1u << (index & 7));
  } else {
    bits[index >> 3] &= static_cast<uint8_t>(~(1u << (index & 7)));
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Task<Status> SolrosFs::Format(uint64_t inode_count, uint64_t journal_blocks) {
  CHECK_GE(inode_count, 2u);
  uint64_t total = store_->block_count();

  SuperBlock sb = {};
  sb.magic = kFsMagic;
  sb.version = kFsVersion;
  sb.block_size = kFsBlockSize;
  sb.total_blocks = total;
  sb.inode_count = inode_count;
  sb.block_bitmap_start = 1;
  sb.block_bitmap_blocks = CeilDiv(total, kBitsPerBlock);
  sb.inode_bitmap_start = sb.block_bitmap_start + sb.block_bitmap_blocks;
  sb.inode_bitmap_blocks = CeilDiv(inode_count, kBitsPerBlock);
  sb.inode_table_start = sb.inode_bitmap_start + sb.inode_bitmap_blocks;
  sb.inode_table_blocks = CeilDiv(inode_count, kInodesPerBlock);
  sb.data_start = sb.inode_table_start + sb.inode_table_blocks;
  if (journal_mode_ != JournalMode::kOff) {
    sb.journal_start = sb.data_start;
    sb.journal_blocks = std::max<uint64_t>(
        journal_blocks != 0 ? journal_blocks : kDefaultJournalBlocks,
        kMinJournalBlocks);
    sb.data_start += sb.journal_blocks;
  }
  if (sb.data_start >= total) {
    co_return InvalidArgumentError("device too small for this inode count");
  }
  sb.free_blocks = total - sb.data_start;
  sb.free_inodes = inode_count - 1;  // root consumes one

  // Superblock.
  std::vector<uint8_t> block(kFsBlockSize, 0);
  std::memcpy(block.data(), &sb, sizeof(sb));
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(0, 1, block));

  // Block bitmap: metadata blocks [0, data_start) are in use.
  block_bitmap_.assign(sb.block_bitmap_blocks * kFsBlockSize, 0);
  for (uint64_t b = 0; b < sb.data_start; ++b) {
    BitSet(block_bitmap_, b, true);
  }
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(
      sb.block_bitmap_start, static_cast<uint32_t>(sb.block_bitmap_blocks),
      block_bitmap_));

  // Inode bitmap: root (ino 1 -> bit 0) in use.
  inode_bitmap_.assign(sb.inode_bitmap_blocks * kFsBlockSize, 0);
  BitSet(inode_bitmap_, 0, true);
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(
      sb.inode_bitmap_start, static_cast<uint32_t>(sb.inode_bitmap_blocks),
      inode_bitmap_));

  // Zeroed inode table with the root directory inode.
  std::vector<uint8_t> table_block(kFsBlockSize, 0);
  DiskInode root = {};
  root.mode = kModeDir;
  root.nlink = 2;
  root.mtime = sim_->now();
  std::memcpy(table_block.data(), &root, kInodeSize);
  SOLROS_CO_RETURN_IF_ERROR(
      co_await store_->Write(sb.inode_table_start, 1, table_block));
  std::vector<uint8_t> zero_block(kFsBlockSize, 0);
  for (uint64_t b = 1; b < sb.inode_table_blocks; ++b) {
    SOLROS_CO_RETURN_IF_ERROR(
        co_await store_->Write(sb.inode_table_start + b, 1, zero_block));
  }
  if (sb.journal_blocks != 0) {
    Journal fresh(store_, sb.journal_start, sb.journal_blocks);
    SOLROS_CO_RETURN_IF_ERROR(co_await fresh.Format());
  }
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Flush());
  co_return co_await Mount();
}

Task<Status> SolrosFs::Mount() {
  if (mounted_) {
    co_return FailedPreconditionError("already mounted");
  }
  std::vector<uint8_t> block(kFsBlockSize);
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(0, 1, block));
  std::memcpy(&super_, block.data(), sizeof(super_));
  if (super_.magic != kFsMagic || super_.version != kFsVersion ||
      super_.block_size != kFsBlockSize) {
    co_return IoError("bad superblock (not a SolrosFS volume?)");
  }
  if (super_.total_blocks > store_->block_count()) {
    co_return IoError("superblock larger than backing device");
  }

  // Crash recovery before anything else is read: replay every committed
  // journal transaction into its home location (idempotent), discard a
  // torn tail, then re-read the superblock — it may itself have been
  // replayed.
  journal_.reset();
  replay_stats_ = JournalReplayStats{};
  if (super_.journal_blocks != 0) {
    if (super_.journal_start < 1 ||
        super_.journal_start + super_.journal_blocks > super_.total_blocks) {
      co_return IoError("journal region out of bounds");
    }
    journal_ = std::make_unique<Journal>(store_, super_.journal_start,
                                         super_.journal_blocks);
    SOLROS_CO_RETURN_IF_ERROR(co_await journal_->Load());
    SOLROS_CO_RETURN_IF_ERROR(co_await journal_->Replay(&replay_stats_));
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(0, 1, block));
    std::memcpy(&super_, block.data(), sizeof(super_));
  }

  block_bitmap_.assign(super_.block_bitmap_blocks * kFsBlockSize, 0);
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(
      super_.block_bitmap_start,
      static_cast<uint32_t>(super_.block_bitmap_blocks), block_bitmap_));
  inode_bitmap_.assign(super_.inode_bitmap_blocks * kFsBlockSize, 0);
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(
      super_.inode_bitmap_start,
      static_cast<uint32_t>(super_.inode_bitmap_blocks), inode_bitmap_));

  alloc_cursor_ = super_.data_start;
  block_bitmap_dirty_ = false;
  inode_bitmap_dirty_ = false;
  super_dirty_ = false;
  inode_cache_.clear();
  staged_writes_.clear();
  meta_txn_required_ = false;
  mounted_ = true;
  co_return OkStatus();
}

Task<Status> SolrosFs::Unmount() {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_RETURN_IF_ERROR(co_await Sync());
  inode_cache_.clear();
  mounted_ = false;
  co_return OkStatus();
}

Task<Status> SolrosFs::Sync() {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  // force: a journaled Sync must commit even pure-mtime dirt.
  SOLROS_CO_RETURN_IF_ERROR(co_await FlushMetadata(/*force=*/true));
  co_return co_await store_->Flush();
}

// ---------------------------------------------------------------------------
// Inode & bitmap plumbing
// ---------------------------------------------------------------------------

Task<Result<DiskInode*>> SolrosFs::GetInode(uint64_t ino) {
  if (ino == 0 || ino > super_.inode_count) {
    co_return InvalidArgumentError("bad inode number");
  }
  auto it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    co_return &it->second.inode;
  }
  if (!BitGet(inode_bitmap_, ino - 1)) {
    co_return NotFoundError("inode not allocated");
  }
  uint64_t block = super_.inode_table_start + (ino - 1) / kInodesPerBlock;
  uint32_t slot = (ino - 1) % kInodesPerBlock;
  std::vector<uint8_t> buf(kFsBlockSize);
  SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(block, 1, buf));
  CachedInode entry;
  // Only the on-disk prefix is deserialized; the in-memory allocation
  // cache past it is recomputed below.
  std::memcpy(static_cast<void*>(&entry.inode), buf.data() + slot * kInodeSize,
              kInodeSize);
  // Recompute the allocation cache.
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                          co_await LoadExtents(entry.inode));
  for (const FsExtent& e : extents) {
    entry.inode.allocated_blocks_cache += e.len;
  }
  auto [pos, inserted] = inode_cache_.emplace(ino, entry);
  co_return &pos->second.inode;
}

void SolrosFs::MarkInodeDirty(uint64_t ino) {
  auto it = inode_cache_.find(ino);
  CHECK(it != inode_cache_.end());
  it->second.dirty = true;
}

Task<Status> SolrosFs::FlushMetadata(bool force) {
  if (journal_ == nullptr) {
    // Take and clear the flags before the first await: metadata dirtied
    // while this write-out is in flight sets its flag again for a later one.
    DirtyMetadata dirty{super_dirty_, block_bitmap_dirty_, inode_bitmap_dirty_,
                        {}};
    for (auto& [ino, cached] : inode_cache_) {
      if (cached.dirty) {
        dirty.inodes.push_back(ino);
        cached.dirty = false;
      }
    }
    super_dirty_ = block_bitmap_dirty_ = inode_bitmap_dirty_ = false;
    const uint64_t id = writeouts_started_++;
    writeouts_in_flight_.insert(id);
    Status status = co_await WriteMetadata(dirty);
    writeouts_in_flight_.erase(id);
    writeout_done_.NotifyAll();
    if (!status.ok()) {
      super_dirty_ |= dirty.super;
      block_bitmap_dirty_ |= dirty.block_bitmap;
      inode_bitmap_dirty_ |= dirty.inode_bitmap;
      for (uint64_t ino : dirty.inodes) {
        MarkInodeDirty(ino);
      }
      co_return status;
    }
    // An earlier write-out may carry this operation's changes.
    while (!writeouts_in_flight_.empty() &&
           *writeouts_in_flight_.begin() < id) {
      co_await writeout_done_.Wait();
    }
    co_return OkStatus();
  }

  // Journaled path: one transaction carries everything this operation
  // changed. A pure-mtime update (overwrite inside a file's allocation)
  // defers — the dirt rides the next structural commit or Sync — which is
  // what keeps steady-state random writes commit-free in metadata mode.
  if (!force && !meta_txn_required_ && staged_writes_.empty()) {
    co_return OkStatus();
  }
  std::vector<JournalBlockImage> images;
  // The staged blocks move into `images` and stay readable through
  // committing_ until this commit checkpoints them (or fails).
  struct Unpin {
    std::map<uint64_t, const uint8_t*>& committing;
    std::vector<std::pair<uint64_t, const uint8_t*>> pinned;
    ~Unpin() {
      for (const auto& [lba, data] : pinned) {
        auto it = committing.find(lba);
        if (it != committing.end() && it->second == data) {
          committing.erase(it);
        }
      }
    }
  } unpin{committing_, {}};
  // Staged content first (map order = ascending LBA, data region after
  // metadata): if an oversized transaction is ever split, metadata goes in
  // the last sub-transaction, so durable metadata never references content
  // from a discarded one.
  for (auto& [lba, data] : staged_writes_) {
    images.push_back(JournalBlockImage{lba, std::move(data)});
    committing_[lba] = images.back().data.data();
    unpin.pinned.emplace_back(lba, images.back().data.data());
  }
  staged_writes_.clear();
  if (super_dirty_) {
    JournalBlockImage image{0, std::vector<uint8_t>(kFsBlockSize, 0)};
    std::memcpy(image.data.data(), &super_, sizeof(super_));
    images.push_back(std::move(image));
  }
  if (block_bitmap_dirty_) {
    for (uint64_t b = 0; b < super_.block_bitmap_blocks; ++b) {
      images.push_back(JournalBlockImage{
          super_.block_bitmap_start + b,
          {block_bitmap_.begin() + b * kFsBlockSize,
           block_bitmap_.begin() + (b + 1) * kFsBlockSize}});
    }
  }
  if (inode_bitmap_dirty_) {
    for (uint64_t b = 0; b < super_.inode_bitmap_blocks; ++b) {
      images.push_back(JournalBlockImage{
          super_.inode_bitmap_start + b,
          {inode_bitmap_.begin() + b * kFsBlockSize,
           inode_bitmap_.begin() + (b + 1) * kFsBlockSize}});
    }
  }
  // Dirty inodes, grouped per table block so each block becomes one image
  // no matter how many of its slots changed.
  std::map<uint64_t, std::vector<uint64_t>> dirty_by_block;
  for (auto& [ino, cached] : inode_cache_) {
    if (cached.dirty) {
      dirty_by_block[(ino - 1) / kInodesPerBlock].push_back(ino);
    }
  }
  for (const auto& [table_block, inos] : dirty_by_block) {
    JournalBlockImage image{super_.inode_table_start + table_block,
                            std::vector<uint8_t>(kFsBlockSize)};
    SOLROS_CO_RETURN_IF_ERROR(
        co_await store_->Read(image.lba, 1, image.data));
    for (uint64_t ino : inos) {
      std::memcpy(
          image.data.data() + ((ino - 1) % kInodesPerBlock) * kInodeSize,
          &inode_cache_[ino].inode, kInodeSize);
    }
    images.push_back(std::move(image));
  }
  if (images.empty()) {
    meta_txn_required_ = false;
    co_return OkStatus();
  }
  SOLROS_CO_RETURN_IF_ERROR(co_await journal_->Commit(images));
  super_dirty_ = false;
  block_bitmap_dirty_ = false;
  inode_bitmap_dirty_ = false;
  meta_txn_required_ = false;
  for (auto& [ino, cached] : inode_cache_) {
    cached.dirty = false;
  }
  co_return OkStatus();
}

Task<Status> SolrosFs::WriteMetadata(const DirtyMetadata& dirty) {
  // Each write gets its own copy: the device reads it when the command
  // runs, and operations may change the live state meanwhile.
  std::vector<uint8_t> buf;
  if (dirty.super) {
    buf.assign(kFsBlockSize, 0);
    std::memcpy(buf.data(), &super_, sizeof(super_));
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(0, 1, buf));
  }
  if (dirty.block_bitmap) {
    buf = block_bitmap_;
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(
        super_.block_bitmap_start,
        static_cast<uint32_t>(super_.block_bitmap_blocks), buf));
  }
  if (dirty.inode_bitmap) {
    buf = inode_bitmap_;
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(
        super_.inode_bitmap_start,
        static_cast<uint32_t>(super_.inode_bitmap_blocks), buf));
  }
  // Inode-table blocks: the read-modify-write copies in every cached inode
  // of the block, since another write-out may land the block after this
  // read (with none in flight, their bytes already equal the disk's).
  buf.resize(kFsBlockSize);
  for (uint64_t ino : dirty.inodes) {
    const uint64_t table_block = (ino - 1) / kInodesPerBlock;
    const uint64_t first = table_block * kInodesPerBlock + 1;
    const uint64_t block = super_.inode_table_start + table_block;
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(block, 1, buf));
    for (auto it = inode_cache_.lower_bound(first);
         it != inode_cache_.end() && it->first < first + kInodesPerBlock;
         ++it) {
      std::memcpy(buf.data() + (it->first - first) * kInodeSize,
                  &it->second.inode, kInodeSize);
    }
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(block, 1, buf));
  }
  co_return OkStatus();
}

void SolrosFs::StageWrite(uint64_t lba, std::span<const uint8_t> block) {
  DCHECK_EQ(block.size(), kFsBlockSize);
  staged_writes_[lba].assign(block.begin(), block.end());
}

Task<Status> SolrosFs::ReadMetaBlock(uint64_t lba, std::span<uint8_t> out) {
  if (journal_ != nullptr) {
    auto it = staged_writes_.find(lba);
    if (it != staged_writes_.end()) {
      std::memcpy(out.data(), it->second.data(), kFsBlockSize);
      co_return OkStatus();
    }
    auto committing = committing_.find(lba);
    if (committing != committing_.end()) {
      std::memcpy(out.data(), committing->second, kFsBlockSize);
      co_return OkStatus();
    }
  }
  co_return co_await store_->Read(lba, 1, out);
}

Result<uint64_t> SolrosFs::AllocInode() {
  if (super_.free_inodes == 0) {
    return ResourceExhaustedError("out of inodes");
  }
  for (uint64_t i = 0; i < super_.inode_count; ++i) {
    if (!BitGet(inode_bitmap_, i)) {
      BitSet(inode_bitmap_, i, true);
      inode_bitmap_dirty_ = true;
      --super_.free_inodes;
      super_dirty_ = true;
      meta_txn_required_ = true;
      uint64_t ino = i + 1;
      CachedInode fresh;
      fresh.inode = DiskInode{};
      fresh.dirty = true;
      inode_cache_[ino] = fresh;
      return ino;
    }
  }
  return ResourceExhaustedError("inode bitmap full despite free count");
}

void SolrosFs::FreeInode(uint64_t ino) {
  BitSet(inode_bitmap_, ino - 1, false);
  inode_bitmap_dirty_ = true;
  ++super_.free_inodes;
  super_dirty_ = true;
  meta_txn_required_ = true;
  auto it = inode_cache_.find(ino);
  if (it != inode_cache_.end()) {
    // Write back a cleared inode so the slot reads as free.
    it->second.inode = DiskInode{};
    it->second.dirty = true;
  }
}

Result<FsExtent> SolrosFs::AllocExtent(uint32_t want) {
  if (super_.free_blocks == 0) {
    return ResourceExhaustedError("no space left on device");
  }
  want = std::min(want, kMaxExtentBlocks);
  if (want == 0) {
    want = 1;
  }
  // Rotating first-fit scan over the data region (two passes: from the
  // cursor to the end, then from data_start to the cursor).
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t begin = pass == 0 ? alloc_cursor_ : super_.data_start;
    uint64_t end = pass == 0 ? super_.total_blocks : alloc_cursor_;
    uint64_t b = begin;
    while (b < end) {
      // Skip fully-used bytes quickly.
      if ((b & 7) == 0 && b + 8 <= end && block_bitmap_[b >> 3] == 0xff) {
        b += 8;
        continue;
      }
      if (BitGet(block_bitmap_, b)) {
        ++b;
        continue;
      }
      // Found a free block; extend the run.
      uint64_t run_end = b + 1;
      while (run_end < end && run_end - b < want &&
             !BitGet(block_bitmap_, run_end)) {
        ++run_end;
      }
      FsExtent extent;
      extent.start = b;
      extent.len = static_cast<uint32_t>(run_end - b);
      for (uint64_t x = b; x < run_end; ++x) {
        BitSet(block_bitmap_, x, true);
      }
      block_bitmap_dirty_ = true;
      super_.free_blocks -= extent.len;
      super_dirty_ = true;
      meta_txn_required_ = true;
      alloc_cursor_ = run_end;
      return extent;
    }
  }
  return ResourceExhaustedError("no space left on device");
}

void SolrosFs::FreeBlocks(const FsExtent& extent) {
  for (uint64_t b = extent.start; b < extent.start + extent.len; ++b) {
    DCHECK(BitGet(block_bitmap_, b));
    BitSet(block_bitmap_, b, false);
  }
  block_bitmap_dirty_ = true;
  super_.free_blocks += extent.len;
  super_dirty_ = true;
  meta_txn_required_ = true;
  if (extent.start < alloc_cursor_) {
    alloc_cursor_ = extent.start;
  }
}

// ---------------------------------------------------------------------------
// Extent management
// ---------------------------------------------------------------------------

Task<Result<std::vector<FsExtent>>> SolrosFs::LoadExtents(
    const DiskInode& inode) {
  std::vector<uint8_t> buf;
  for (;;) {
    // `inode` is the live cached inode: a truncate or write that lands
    // while the indirect block is read may change its extents, so take
    // them as they stand after the read, and read again if the indirect
    // block the read was for no longer holds them.
    const uint32_t count = inode.extent_count;
    const uint64_t indirect = inode.indirect_block;
    if (count > kDirectExtents) {
      if (indirect == 0) {
        co_return IoError("inode missing indirect extent block");
      }
      buf.resize(kFsBlockSize);
      // Through the staging map: within one op the indirect block may have
      // been rewritten by StoreExtents but not yet committed.
      SOLROS_CO_RETURN_IF_ERROR(co_await ReadMetaBlock(indirect, buf));
      if (inode.extent_count != count || inode.indirect_block != indirect) {
        continue;
      }
    }
    std::vector<FsExtent> extents;
    extents.reserve(std::min(count, kMaxExtentsPerFile));
    extents.insert(extents.end(), inode.direct,
                   inode.direct + std::min<uint32_t>(count, kDirectExtents));
    if (count > kDirectExtents) {
      // At most one block's worth, whatever the count claims.
      const uint32_t extra =
          std::min<uint32_t>(count - kDirectExtents, kIndirectExtents);
      extents.resize(kDirectExtents + extra);
      std::memcpy(&extents[kDirectExtents], buf.data(),
                  extra * sizeof(FsExtent));
    }
    co_return extents;
  }
}

Task<Status> SolrosFs::StoreExtents(uint64_t ino,
                                    const std::vector<FsExtent>& extents) {
  if (extents.size() > kMaxExtentsPerFile) {
    co_return ResourceExhaustedError("file too fragmented");
  }
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  uint32_t direct = std::min<size_t>(extents.size(), kDirectExtents);
  for (uint32_t i = 0; i < direct; ++i) {
    inode->direct[i] = extents[i];
  }
  for (uint32_t i = direct; i < kDirectExtents; ++i) {
    inode->direct[i] = FsExtent{};
  }
  if (extents.size() > kDirectExtents) {
    if (inode->indirect_block == 0) {
      SOLROS_CO_ASSIGN_OR_RETURN(FsExtent ib, AllocExtent(1));
      if (ib.len != 1) {
        // Only need one block; return the surplus.
        FsExtent surplus{ib.start + 1, ib.len - 1, 0};
        FreeBlocks(surplus);
      }
      inode->indirect_block = ib.start;
    }
    std::vector<uint8_t> buf(kFsBlockSize, 0);
    for (size_t i = kDirectExtents; i < extents.size(); ++i) {
      std::memcpy(buf.data() + (i - kDirectExtents) * sizeof(FsExtent),
                  &extents[i], sizeof(FsExtent));
    }
    if (journal_ != nullptr) {
      // The indirect block is metadata: it must land in the same
      // transaction as the inode that points at it.
      StageWrite(inode->indirect_block, buf);
      meta_txn_required_ = true;
    } else {
      SOLROS_CO_RETURN_IF_ERROR(
          co_await store_->Write(inode->indirect_block, 1, buf));
    }
  } else if (inode->indirect_block != 0) {
    FreeBlocks(FsExtent{inode->indirect_block, 1, 0});
    inode->indirect_block = 0;
  }
  inode->extent_count = static_cast<uint32_t>(extents.size());
  uint64_t blocks = 0;
  for (const FsExtent& e : extents) {
    blocks += e.len;
  }
  inode->allocated_blocks_cache = blocks;
  MarkInodeDirty(ino);
  co_return OkStatus();
}

Task<Status> SolrosFs::EnsureAllocated(uint64_t ino, uint64_t blocks) {
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  if (inode->allocated_blocks_cache >= blocks) {
    co_return OkStatus();
  }
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                          co_await LoadExtents(*inode));
  uint64_t have = inode->allocated_blocks_cache;
  while (have < blocks) {
    uint64_t need = blocks - have;
    SOLROS_CO_ASSIGN_OR_RETURN(
        FsExtent extent,
        AllocExtent(static_cast<uint32_t>(
            std::min<uint64_t>(need, kMaxExtentBlocks))));
    // Merge into the previous extent when physically contiguous.
    if (!extents.empty() &&
        extents.back().start + extents.back().len == extent.start &&
        uint64_t{extents.back().len} + extent.len <= kMaxExtentBlocks) {
      extents.back().len += extent.len;
    } else {
      extents.push_back(extent);
    }
    have += extent.len;
  }
  co_return co_await StoreExtents(ino, extents);
}

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

namespace {

// A piece of a byte range laid onto a file's extents: `blocks` whole
// blocks contiguous on disk from `lba`, or (`blocks` 0) `bytes` bytes of
// block `lba` from byte `in_block`.
struct Piece {
  uint64_t lba = 0;
  uint32_t in_block = 0;
  uint32_t blocks = 0;
  uint64_t bytes = 0;
};

// Splits [pos, end) into whole-block runs, each as long as its extent
// allows, and partial blocks.
Result<std::vector<Piece>> PlanPieces(const std::vector<FsExtent>& extents,
                                      uint64_t pos, uint64_t end) {
  std::vector<Piece> pieces;
  auto extent = extents.begin();
  uint64_t extent_first = 0;  // logical block where `extent` starts
  while (pos < end) {
    const uint64_t lblock = pos / kFsBlockSize;
    while (extent != extents.end() && lblock >= extent_first + extent->len) {
      extent_first += extent->len;
      ++extent;
    }
    if (extent == extents.end()) {
      return OutOfRangeError("logical block beyond allocation");
    }
    Piece piece;
    piece.lba = extent->start + (lblock - extent_first);
    piece.in_block = pos % kFsBlockSize;
    const uint64_t run_bytes =
        (extent_first + extent->len - lblock) * kFsBlockSize - piece.in_block;
    piece.bytes = std::min(end - pos, run_bytes);
    if (piece.in_block == 0 && piece.bytes >= kFsBlockSize) {
      piece.blocks = static_cast<uint32_t>(piece.bytes / kFsBlockSize);
      piece.bytes = uint64_t{piece.blocks} * kFsBlockSize;
    } else {
      piece.bytes =
          std::min<uint64_t>(piece.bytes, kFsBlockSize - piece.in_block);
    }
    pieces.push_back(piece);
    pos += piece.bytes;
  }
  return pieces;
}

// Zero-fill writes are at most this many blocks.
constexpr uint32_t kZeroBatchBlocks = 256;

}  // namespace

Task<Result<uint64_t>> SolrosFs::ReadAt(uint64_t ino, uint64_t offset,
                                        std::span<uint8_t> out) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  if (offset >= inode->size) {
    co_return uint64_t{0};
  }
  uint64_t len = std::min<uint64_t>(out.size(), inode->size - offset);
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                          co_await LoadExtents(*inode));
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<Piece> pieces,
                          PlanPieces(extents, offset, offset + len));

  std::vector<uint8_t> scratch(kFsBlockSize);
  // The full-block runs are deferred and read in one vectored store
  // submission; block ranges within one call never overlap, so the deferral
  // cannot reorder conflicting I/O.
  std::vector<BlockRun> runs;
  uint8_t* dst = out.data();
  for (const Piece& piece : pieces) {
    if (piece.blocks != 0) {
      runs.push_back(BlockRun{piece.lba, piece.blocks, {dst, piece.bytes}});
    } else {
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(piece.lba, 1, scratch));
      std::memcpy(dst, scratch.data() + piece.in_block, piece.bytes);
    }
    dst += piece.bytes;
  }
  if (!runs.empty()) {
    SOLROS_CO_RETURN_IF_ERROR(co_await store_->ReadV(runs, /*coalesce=*/true));
  }
  co_return len;
}

Task<Result<uint64_t>> SolrosFs::WriteAt(uint64_t ino, uint64_t offset,
                                         std::span<const uint8_t> in) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  uint64_t len = in.size();
  uint64_t end = offset + len;
  uint64_t old_size = inode->size;
  SOLROS_CO_RETURN_IF_ERROR(
      co_await EnsureAllocated(ino, CeilDiv(end, kFsBlockSize)));
  // GetInode pointer may still be used: cache entries are stable.
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                          co_await LoadExtents(*inode));
  // No sparse holes: zero any gap between the old EOF and the write start.
  if (offset > old_size) {
    SOLROS_CO_RETURN_IF_ERROR(co_await ZeroRange(extents, old_size, offset));
  }
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<Piece> pieces,
                          PlanPieces(extents, offset, end));

  // Directory contents always ride the journal (they are metadata); file
  // contents do too in data mode. Staged blocks commit atomically with the
  // inode/bitmap updates at the FlushMetadata below.
  const bool journal_content = JournalsContent(*inode);
  std::vector<uint8_t> scratch(kFsBlockSize);
  // The full-block runs are deferred into one vectored store submission
  // (disjoint from any partial-block RMW, so ordering is preserved).
  std::vector<ConstBlockRun> runs;
  const uint8_t* src = in.data();
  for (const Piece& piece : pieces) {
    if (piece.blocks != 0 && journal_content) {
      for (uint32_t b = 0; b < piece.blocks; ++b) {
        StageWrite(piece.lba + b, {src + b * kFsBlockSize, kFsBlockSize});
      }
    } else if (piece.blocks != 0) {
      runs.push_back(
          ConstBlockRun{piece.lba, piece.blocks, {src, piece.bytes}});
    } else if (journal_content) {
      SOLROS_CO_RETURN_IF_ERROR(co_await ReadMetaBlock(piece.lba, scratch));
      std::memcpy(scratch.data() + piece.in_block, src, piece.bytes);
      StageWrite(piece.lba, scratch);
    } else {
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(piece.lba, 1, scratch));
      std::memcpy(scratch.data() + piece.in_block, src, piece.bytes);
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(piece.lba, 1, scratch));
    }
    src += piece.bytes;
  }
  if (!runs.empty()) {
    SOLROS_CO_RETURN_IF_ERROR(
        co_await store_->WriteV(runs, /*coalesce=*/true));
  }

  SOLROS_CO_RETURN_IF_ERROR(
      co_await SetSizeAndFlush(ino, inode, std::max(end, inode->size)));
  co_return len;
}

Task<Status> SolrosFs::ZeroRange(const std::vector<FsExtent>& extents,
                                 uint64_t from, uint64_t to) {
  SOLROS_CO_ASSIGN_OR_RETURN(
      std::vector<Piece> pieces,
      PlanPieces(extents, from, CeilDiv(to, kFsBlockSize) * kFsBlockSize));
  for (const Piece& piece : pieces) {
    if (piece.blocks == 0) {
      // Only the first block can be partial: keep its bytes before `from`.
      std::vector<uint8_t> rmw(kFsBlockSize);
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Read(piece.lba, 1, rmw));
      std::memset(rmw.data() + piece.in_block, 0,
                  std::min(piece.bytes, to - from));
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(piece.lba, 1, rmw));
      continue;
    }
    std::vector<uint8_t> zeros(
        std::min(piece.blocks, kZeroBatchBlocks) * kFsBlockSize, 0);
    for (uint32_t done = 0; done < piece.blocks;) {
      uint32_t batch = std::min(piece.blocks - done, kZeroBatchBlocks);
      SOLROS_CO_RETURN_IF_ERROR(co_await store_->Write(
          piece.lba + done, batch, {zeros.data(), batch * kFsBlockSize}));
      done += batch;
    }
  }
  co_return OkStatus();
}

Task<Status> SolrosFs::Truncate(uint64_t ino, uint64_t new_size) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  if (!inode->IsFile()) {
    co_return InvalidArgumentError("truncate on non-file");
  }
  if (new_size > inode->size) {
    // Grow: allocate and zero the new range, including the old last
    // block's tail (a prior shrink may have left old data past EOF).
    uint64_t old_size = inode->size;
    SOLROS_CO_RETURN_IF_ERROR(
        co_await EnsureAllocated(ino, CeilDiv(new_size, kFsBlockSize)));
    SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                            co_await LoadExtents(*inode));
    SOLROS_CO_RETURN_IF_ERROR(co_await ZeroRange(extents, old_size, new_size));
  } else if (new_size < inode->size) {
    // Shrink: free whole blocks beyond the new end.
    uint64_t keep_blocks = CeilDiv(new_size, kFsBlockSize);
    SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                            co_await LoadExtents(*inode));
    std::vector<FsExtent> kept;
    uint64_t cursor = 0;
    for (const FsExtent& e : extents) {
      if (cursor >= keep_blocks) {
        FreeBlocks(e);
      } else if (cursor + e.len <= keep_blocks) {
        kept.push_back(e);
      } else {
        uint32_t keep_len = static_cast<uint32_t>(keep_blocks - cursor);
        kept.push_back(FsExtent{e.start, keep_len, 0});
        FreeBlocks(FsExtent{e.start + keep_len, e.len - keep_len, 0});
      }
      cursor += e.len;
    }
    SOLROS_CO_RETURN_IF_ERROR(co_await StoreExtents(ino, kept));
  }
  co_return co_await SetSizeAndFlush(ino, inode, new_size);
}

Task<Status> SolrosFs::SetSizeAndFlush(uint64_t ino, DiskInode* inode,
                                       uint64_t size) {
  if (size != inode->size) {
    inode->size = size;
    meta_txn_required_ = true;
  }
  inode->mtime = sim_->now();
  MarkInodeDirty(ino);
  co_return co_await FlushMetadata();
}

Task<Result<std::vector<FsExtent>>> SolrosFs::PrepareWrite(uint64_t ino,
                                                           uint64_t offset,
                                                           uint64_t length) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  if (!inode->IsFile()) {
    co_return InvalidArgumentError("PrepareWrite on non-file");
  }
  if (offset > inode->size) {
    co_return FailedPreconditionError(
        "write past EOF leaves a gap; use the buffered path");
  }
  uint64_t end = offset + length;
  SOLROS_CO_RETURN_IF_ERROR(
      co_await EnsureAllocated(ino, CeilDiv(end, kFsBlockSize)));
  SOLROS_CO_RETURN_IF_ERROR(
      co_await SetSizeAndFlush(ino, inode, std::max(end, inode->size)));
  co_return co_await Fiemap(ino, offset, length);
}

Task<Result<std::vector<FsExtent>>> SolrosFs::Fiemap(uint64_t ino,
                                                     uint64_t offset,
                                                     uint64_t length) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                          co_await LoadExtents(*inode));
  if (length == 0 || offset >= inode->size) {
    co_return std::vector<FsExtent>{};
  }
  length = std::min(length, inode->size - offset);
  // Whole blocks only: every piece is a run.
  SOLROS_CO_ASSIGN_OR_RETURN(
      std::vector<Piece> pieces,
      PlanPieces(extents, offset / kFsBlockSize * kFsBlockSize,
                 CeilDiv(offset + length, kFsBlockSize) * kFsBlockSize));
  std::vector<FsExtent> out;
  out.reserve(pieces.size());
  for (const Piece& piece : pieces) {
    out.push_back(FsExtent{piece.lba, piece.blocks, 0});
  }
  co_return out;
}

// ---------------------------------------------------------------------------
// Directories
// ---------------------------------------------------------------------------

Task<Result<std::optional<uint64_t>>> SolrosFs::ScanDir(
    uint64_t dir_ino, DirentVisitor visit) {
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * dir, co_await GetInode(dir_ino));
  if (!dir->IsDir()) {
    co_return InvalidArgumentError("not a directory");
  }
  std::vector<uint8_t> block(kFsBlockSize);
  for (uint64_t off = 0; off < dir->size; off += kFsBlockSize) {
    SOLROS_CO_ASSIGN_OR_RETURN(uint64_t n,
                            co_await ReadAt(dir_ino, off, block));
    for (uint64_t slot = 0; slot + sizeof(Dirent) <= n;
         slot += sizeof(Dirent)) {
      Dirent entry;
      std::memcpy(&entry, block.data() + slot, sizeof(Dirent));
      if (visit(entry)) {
        co_return std::optional<uint64_t>(off + slot);
      }
    }
  }
  co_return std::optional<uint64_t>();
}

Task<Result<uint64_t>> SolrosFs::DirLookup(uint64_t dir_ino,
                                           std::string_view name) {
  uint64_t ino = 0;
  SOLROS_CO_ASSIGN_OR_RETURN(
      std::optional<uint64_t> slot,
      co_await ScanDir(dir_ino, [&](const Dirent& entry) {
        if (entry.ino == 0 || entry.Name() != name) {
          return false;
        }
        ino = entry.ino;
        return true;
      }));
  if (!slot) {
    co_return NotFoundError(std::string(name));
  }
  co_return ino;
}

Task<Status> SolrosFs::DirAdd(uint64_t dir_ino, std::string_view name,
                              uint64_t ino, uint8_t type) {
  // Reuse a free slot if one exists, else append at the end.
  SOLROS_CO_ASSIGN_OR_RETURN(
      std::optional<uint64_t> slot,
      co_await ScanDir(dir_ino,
                       [](const Dirent& entry) { return entry.ino == 0; }));
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * dir, co_await GetInode(dir_ino));
  Dirent entry;
  entry.ino = ino;
  entry.type = type;
  entry.SetName(std::string(name));
  co_return (co_await WriteAt(dir_ino, slot.value_or(dir->size),
                              {reinterpret_cast<const uint8_t*>(&entry),
                               sizeof(entry)}))
      .status();
}

Task<Status> SolrosFs::DirRemove(uint64_t dir_ino, std::string_view name) {
  SOLROS_CO_ASSIGN_OR_RETURN(
      std::optional<uint64_t> slot,
      co_await ScanDir(dir_ino, [&](const Dirent& entry) {
        return entry.ino != 0 && entry.Name() == name;
      }));
  if (!slot) {
    co_return NotFoundError(std::string(name));
  }
  Dirent cleared = {};
  co_return (co_await WriteAt(dir_ino, *slot,
                              {reinterpret_cast<const uint8_t*>(&cleared),
                               sizeof(cleared)}))
      .status();
}

// ---------------------------------------------------------------------------
// Path walking & namespace operations
// ---------------------------------------------------------------------------

Status SolrosFs::SplitPath(const std::string& path,
                           std::vector<std::string>* components) {
  components->clear();
  if (path.empty() || path[0] != '/') {
    return InvalidArgumentError("path must be absolute: " + path);
  }
  size_t pos = 1;
  while (pos < path.size()) {
    size_t next = path.find('/', pos);
    if (next == std::string::npos) {
      next = path.size();
    }
    if (next != pos) {
      std::string name = path.substr(pos, next - pos);
      if (name.size() > kMaxFileName) {
        return InvalidArgumentError("name too long: " + name);
      }
      components->push_back(std::move(name));
    }
    pos = next + 1;
  }
  return OkStatus();
}

Task<Result<uint64_t>> SolrosFs::ResolvePath(const std::string& path) {
  std::vector<std::string> components;
  SOLROS_CO_RETURN_IF_ERROR(SplitPath(path, &components));
  uint64_t ino = kRootInode;
  for (const std::string& name : components) {
    SOLROS_CO_ASSIGN_OR_RETURN(ino, co_await DirLookup(ino, name));
  }
  co_return ino;
}

Task<Result<SolrosFs::ResolvedParent>> SolrosFs::ResolveParent(
    const std::string& path) {
  std::vector<std::string> components;
  SOLROS_CO_RETURN_IF_ERROR(SplitPath(path, &components));
  if (components.empty()) {
    co_return InvalidArgumentError("cannot operate on /");
  }
  uint64_t ino = kRootInode;
  for (size_t i = 0; i + 1 < components.size(); ++i) {
    SOLROS_CO_ASSIGN_OR_RETURN(ino, co_await DirLookup(ino, components[i]));
  }
  ResolvedParent result;
  result.parent_ino = ino;
  result.leaf = components.back();
  co_return result;
}

Task<Result<uint64_t>> SolrosFs::MakeNode(const std::string& path,
                                          uint32_t mode, uint32_t nlink) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(ResolvedParent rp, co_await ResolveParent(path));
  auto existing = co_await DirLookup(rp.parent_ino, rp.leaf);
  if (existing.ok()) {
    co_return AlreadyExistsError(path);
  }
  if (existing.code() != ErrorCode::kNotFound) {
    co_return existing.status();
  }
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino, AllocInode());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  inode->mode = mode;
  inode->nlink = nlink;
  inode->mtime = sim_->now();
  MarkInodeDirty(ino);
  SOLROS_CO_RETURN_IF_ERROR(co_await DirAdd(
      rp.parent_ino, rp.leaf, ino, static_cast<uint8_t>(mode >> 12)));
  SOLROS_CO_RETURN_IF_ERROR(co_await FlushMetadata());
  co_return ino;
}

Task<Result<uint64_t>> SolrosFs::Create(const std::string& path) {
  co_return co_await MakeNode(path, kModeFile, 1);
}

Task<Status> SolrosFs::Mkdir(const std::string& path) {
  co_return (co_await MakeNode(path, kModeDir, 2)).status();
}

Task<Result<uint64_t>> SolrosFs::Lookup(const std::string& path) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  co_return co_await ResolvePath(path);
}

Task<Status> SolrosFs::RemoveNode(const std::string& path, bool dir) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(ResolvedParent rp, co_await ResolveParent(path));
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino,
                          co_await DirLookup(rp.parent_ino, rp.leaf));
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  if (inode->IsDir() != dir) {
    co_return InvalidArgumentError(dir ? "rmdir on non-directory"
                                       : "unlink on directory (use rmdir)");
  }
  if (dir) {
    SOLROS_CO_ASSIGN_OR_RETURN(
        std::optional<uint64_t> used,
        co_await ScanDir(ino,
                         [](const Dirent& entry) { return entry.ino != 0; }));
    if (used) {
      co_return FailedPreconditionError("directory not empty");
    }
  }
  SOLROS_CO_RETURN_IF_ERROR(co_await DirRemove(rp.parent_ino, rp.leaf));
  if (dir || --inode->nlink == 0) {
    SOLROS_CO_ASSIGN_OR_RETURN(std::vector<FsExtent> extents,
                            co_await LoadExtents(*inode));
    for (const FsExtent& e : extents) {
      FreeBlocks(e);
    }
    if (inode->indirect_block != 0) {
      FreeBlocks(FsExtent{inode->indirect_block, 1, 0});
    }
    FreeInode(ino);
  } else {
    MarkInodeDirty(ino);
  }
  co_return co_await FlushMetadata();
}

Task<Status> SolrosFs::Unlink(const std::string& path) {
  co_return co_await RemoveNode(path, /*dir=*/false);
}

Task<Status> SolrosFs::Rmdir(const std::string& path) {
  co_return co_await RemoveNode(path, /*dir=*/true);
}

Task<Status> SolrosFs::Rename(const std::string& from, const std::string& to) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(ResolvedParent src, co_await ResolveParent(from));
  SOLROS_CO_ASSIGN_OR_RETURN(ResolvedParent dst, co_await ResolveParent(to));
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino,
                          co_await DirLookup(src.parent_ino, src.leaf));
  auto existing = co_await DirLookup(dst.parent_ino, dst.leaf);
  if (existing.ok()) {
    co_return AlreadyExistsError(to);
  }
  if (existing.code() != ErrorCode::kNotFound) {
    co_return existing.status();
  }
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  uint8_t type = static_cast<uint8_t>(inode->mode >> 12);
  SOLROS_CO_RETURN_IF_ERROR(co_await DirRemove(src.parent_ino, src.leaf));
  SOLROS_CO_RETURN_IF_ERROR(co_await DirAdd(dst.parent_ino, dst.leaf, ino, type));
  co_return co_await FlushMetadata();
}

Task<Result<std::vector<DirEntry>>> SolrosFs::Readdir(
    const std::string& path) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino, co_await ResolvePath(path));
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * dir, co_await GetInode(ino));
  if (!dir->IsDir()) {
    co_return InvalidArgumentError("not a directory: " + path);
  }
  std::vector<DirEntry> out;
  auto collect = [&out](const Dirent& entry) {
    if (entry.ino != 0) {
      out.push_back(DirEntry{entry.ino, entry.Name(),
                             entry.type == (kModeDir >> 12)});
    }
    return false;
  };
  SOLROS_CO_RETURN_IF_ERROR((co_await ScanDir(ino, collect)).status());
  co_return out;
}

Task<Result<FileStat>> SolrosFs::Stat(const std::string& path) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(uint64_t ino, co_await ResolvePath(path));
  co_return co_await StatInode(ino);
}

Task<Result<FileStat>> SolrosFs::StatInode(uint64_t ino) {
  SOLROS_CO_RETURN_IF_ERROR(CheckMounted());
  SOLROS_CO_ASSIGN_OR_RETURN(DiskInode * inode, co_await GetInode(ino));
  FileStat stat;
  stat.ino = ino;
  stat.size = inode->size;
  stat.mtime = inode->mtime;
  stat.mode = inode->mode;
  stat.nlink = inode->nlink;
  stat.extent_count = inode->extent_count;
  co_return stat;
}

}  // namespace solros
