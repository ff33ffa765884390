// SolrosFS semantics over the instant in-memory block store.
#include "src/fs/solros_fs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/prng.h"
#include "src/base/units.h"
#include "src/fs/block_store.h"
#include "src/fs/fsck.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace solros {
namespace {

class FsTest : public ::testing::Test {
 protected:
  FsTest() : store_(kFsBlockSize, 16384), fs_(&store_, &sim_) {
    Status status = RunSim(sim_, fs_.Format(512));
    CHECK_OK(status);
  }

  std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
    Prng prng(seed);
    std::vector<uint8_t> out(n);
    for (auto& b : out) {
      b = static_cast<uint8_t>(prng.Next());
    }
    return out;
  }

  uint64_t MustCreate(const std::string& path) {
    auto result = RunSim(sim_, fs_.Create(path));
    CHECK_OK(result);
    return *result;
  }

  void WriteAll(uint64_t ino, uint64_t off, std::span<const uint8_t> data) {
    auto n = RunSim(sim_, fs_.WriteAt(ino, off, data));
    CHECK_OK(n);
    CHECK_EQ(*n, data.size());
  }

  std::vector<uint8_t> ReadAll(uint64_t ino, uint64_t off, size_t len) {
    std::vector<uint8_t> buf(len);
    auto n = RunSim(sim_, fs_.ReadAt(ino, off, buf));
    CHECK_OK(n);
    buf.resize(*n);
    return buf;
  }

  Simulator sim_;
  MemBlockStore store_;
  SolrosFs fs_;
};

TEST_F(FsTest, FormatAndMountProducesEmptyRoot) {
  auto entries = RunSim(sim_, fs_.Readdir("/"));
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
  EXPECT_GT(fs_.free_blocks(), 0u);
}

TEST_F(FsTest, CreateLookupStat) {
  uint64_t ino = MustCreate("/hello.txt");
  auto looked = RunSim(sim_, fs_.Lookup("/hello.txt"));
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(*looked, ino);
  auto stat = RunSim(sim_, fs_.Stat("/hello.txt"));
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->size, 0u);
  EXPECT_TRUE((stat->mode & kModeFile) != 0);
  EXPECT_EQ(stat->nlink, 1u);
}

TEST_F(FsTest, CreateDuplicateFails) {
  MustCreate("/a");
  auto dup = RunSim(sim_, fs_.Create("/a"));
  EXPECT_EQ(dup.code(), ErrorCode::kAlreadyExists);
}

TEST_F(FsTest, LookupMissingFails) {
  EXPECT_EQ(RunSim(sim_, fs_.Lookup("/nope")).code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, PathValidation) {
  EXPECT_EQ(RunSim(sim_, fs_.Create("relative")).code(),
            ErrorCode::kInvalidArgument);
  std::string long_name(kMaxFileName + 1, 'x');
  EXPECT_EQ(RunSim(sim_, fs_.Create("/" + long_name)).code(),
            ErrorCode::kInvalidArgument);
  // Root itself cannot be created over.
  EXPECT_EQ(RunSim(sim_, fs_.Create("/")).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FsTest, SmallWriteReadRoundtrip) {
  uint64_t ino = MustCreate("/f");
  auto data = RandomBytes(100, 1);
  WriteAll(ino, 0, data);
  EXPECT_EQ(ReadAll(ino, 0, 100), data);
  auto stat = RunSim(sim_, fs_.StatInode(ino));
  EXPECT_EQ(stat->size, 100u);
}

TEST_F(FsTest, UnalignedWritesAcrossBlockBoundaries) {
  uint64_t ino = MustCreate("/f");
  auto data = RandomBytes(3 * kFsBlockSize, 2);
  // Write at an odd offset spanning several blocks.
  WriteAll(ino, 1000, data);
  EXPECT_EQ(ReadAll(ino, 1000, data.size()), data);
  // The gap [0,1000) reads as zeros.
  auto head = ReadAll(ino, 0, 1000);
  EXPECT_TRUE(std::all_of(head.begin(), head.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST_F(FsTest, OverwriteInPlaceKeepsExtents) {
  uint64_t ino = MustCreate("/f");
  auto data = RandomBytes(MiB(1), 3);
  WriteAll(ino, 0, data);
  auto stat1 = RunSim(sim_, fs_.StatInode(ino));
  auto data2 = RandomBytes(MiB(1), 4);
  WriteAll(ino, 0, data2);
  auto stat2 = RunSim(sim_, fs_.StatInode(ino));
  // In-place update: same extent count, same size.
  EXPECT_EQ(stat1->extent_count, stat2->extent_count);
  EXPECT_EQ(ReadAll(ino, 0, MiB(1)), data2);
}

TEST_F(FsTest, ReadPastEofClamps) {
  uint64_t ino = MustCreate("/f");
  auto data = RandomBytes(10, 5);
  WriteAll(ino, 0, data);
  std::vector<uint8_t> buf(100);
  auto n = RunSim(sim_, fs_.ReadAt(ino, 5, buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  auto n2 = RunSim(sim_, fs_.ReadAt(ino, 50, buf));
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(*n2, 0u);
}

TEST_F(FsTest, LargeFileUsesFewExtents) {
  uint64_t ino = MustCreate("/big");
  auto data = RandomBytes(MiB(8), 6);
  WriteAll(ino, 0, data);
  auto stat = RunSim(sim_, fs_.StatInode(ino));
  // A fresh volume should satisfy 8 MiB nearly contiguously.
  EXPECT_LE(stat->extent_count, 3u);
  EXPECT_EQ(ReadAll(ino, 0, MiB(8)), data);
}

TEST_F(FsTest, AppendGrowsFile) {
  uint64_t ino = MustCreate("/log");
  std::vector<uint8_t> chunk(1000, 0xaa);
  for (int i = 0; i < 20; ++i) {
    WriteAll(ino, uint64_t{1000} * i, chunk);
  }
  auto stat = RunSim(sim_, fs_.StatInode(ino));
  EXPECT_EQ(stat->size, 20000u);
}

TEST_F(FsTest, MkdirAndNestedPaths) {
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/dir")));
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/dir/sub")));
  uint64_t ino = MustCreate("/dir/sub/file");
  auto looked = RunSim(sim_, fs_.Lookup("/dir/sub/file"));
  ASSERT_TRUE(looked.ok());
  EXPECT_EQ(*looked, ino);
  auto entries = RunSim(sim_, fs_.Readdir("/dir"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "sub");
  EXPECT_TRUE((*entries)[0].is_dir);
}

TEST_F(FsTest, ReaddirListsAllEntries) {
  std::set<std::string> names;
  for (int i = 0; i < 100; ++i) {
    std::string name = "file" + std::to_string(i);
    MustCreate("/" + name);
    names.insert(name);
  }
  auto entries = RunSim(sim_, fs_.Readdir("/"));
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 100u);
  for (const DirEntry& e : *entries) {
    EXPECT_TRUE(names.count(e.name)) << e.name;
  }
}

TEST_F(FsTest, DirectoryOverFourDirentBlocksReusesFreedSlots) {
  // 200 entries fill three dirent blocks (64 slots each) and part of a
  // fourth.
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/d")));
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    names.push_back("file" + std::to_string(i));
    MustCreate("/d/" + names.back());
  }
  auto dir_size = [&] { return RunSim(sim_, fs_.Stat("/d"))->size; };
  const uint64_t size = dir_size();
  EXPECT_EQ(size, 200 * sizeof(Dirent));
  auto listed = [&] {
    std::vector<std::string> out;
    auto entries = RunSim(sim_, fs_.Readdir("/d"));
    CHECK_OK(entries);
    for (const DirEntry& e : *entries) {
      out.push_back(e.name);
    }
    return out;
  };
  EXPECT_EQ(listed(), names);

  // Slot 150 is in the third block; the next create takes it.
  CHECK_OK(RunSim(sim_, fs_.Unlink("/d/file150")));
  uint64_t fresh = MustCreate("/d/fresh");
  names[150] = "fresh";
  EXPECT_EQ(dir_size(), size);
  EXPECT_EQ(listed(), names);
  for (const std::string& name : names) {
    EXPECT_TRUE(RunSim(sim_, fs_.Lookup("/d/" + name)).ok()) << name;
  }
  EXPECT_EQ(*RunSim(sim_, fs_.Lookup("/d/fresh")), fresh);

  // Rmdir scans past emptied blocks to the last entry.
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    CHECK_OK(RunSim(sim_, fs_.Unlink("/d/" + names[i])));
  }
  EXPECT_EQ(RunSim(sim_, fs_.Rmdir("/d")).code(),
            ErrorCode::kFailedPrecondition);
  CHECK_OK(RunSim(sim_, fs_.Unlink("/d/" + names.back())));
  CHECK_OK(RunSim(sim_, fs_.Rmdir("/d")));
  EXPECT_EQ(RunSim(sim_, fs_.Lookup("/d")).code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, UnlinkFreesSpace) {
  // Force the root directory's data block to exist first so the baseline
  // excludes it (directory blocks are not reclaimed by unlink).
  MustCreate("/placeholder");
  uint64_t free_before = fs_.free_blocks();
  uint64_t ino = MustCreate("/f");
  WriteAll(ino, 0, RandomBytes(MiB(1), 7));
  EXPECT_LT(fs_.free_blocks(), free_before);
  CHECK_OK(RunSim(sim_, fs_.Unlink("/f")));
  EXPECT_EQ(fs_.free_blocks(), free_before);
  EXPECT_EQ(RunSim(sim_, fs_.Lookup("/f")).code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, UnlinkDirectoryRejected) {
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/d")));
  EXPECT_EQ(RunSim(sim_, fs_.Unlink("/d")).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(FsTest, RmdirOnlyWhenEmpty) {
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/d")));
  MustCreate("/d/f");
  EXPECT_EQ(RunSim(sim_, fs_.Rmdir("/d")).code(),
            ErrorCode::kFailedPrecondition);
  CHECK_OK(RunSim(sim_, fs_.Unlink("/d/f")));
  CHECK_OK(RunSim(sim_, fs_.Rmdir("/d")));
  EXPECT_EQ(RunSim(sim_, fs_.Lookup("/d")).code(), ErrorCode::kNotFound);
}

TEST_F(FsTest, RenameMovesAcrossDirectories) {
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/a")));
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/b")));
  uint64_t ino = MustCreate("/a/f");
  WriteAll(ino, 0, RandomBytes(100, 8));
  CHECK_OK(RunSim(sim_, fs_.Rename("/a/f", "/b/g")));
  EXPECT_EQ(RunSim(sim_, fs_.Lookup("/a/f")).code(), ErrorCode::kNotFound);
  auto moved = RunSim(sim_, fs_.Lookup("/b/g"));
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, ino);
  EXPECT_EQ(ReadAll(ino, 0, 100), RandomBytes(100, 8));
}

TEST_F(FsTest, RenameOntoExistingFails) {
  MustCreate("/x");
  MustCreate("/y");
  EXPECT_EQ(RunSim(sim_, fs_.Rename("/x", "/y")).code(),
            ErrorCode::kAlreadyExists);
}

TEST_F(FsTest, TruncateShrinkAndGrow) {
  uint64_t ino = MustCreate("/f");
  WriteAll(ino, 0, RandomBytes(MiB(1), 9));
  uint64_t free_small = fs_.free_blocks();
  CHECK_OK(RunSim(sim_, fs_.Truncate(ino, KiB(4))));
  EXPECT_GT(fs_.free_blocks(), free_small);
  auto stat = RunSim(sim_, fs_.StatInode(ino));
  EXPECT_EQ(stat->size, KiB(4));
  // Grow back: new range must read as zeros.
  CHECK_OK(RunSim(sim_, fs_.Truncate(ino, KiB(64))));
  auto tail = ReadAll(ino, KiB(4), KiB(60));
  ASSERT_EQ(tail.size(), KiB(60));
  EXPECT_TRUE(std::all_of(tail.begin(), tail.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST_F(FsTest, WritePastEofZeroesTheWholeGap) {
  // Leave stale bytes in the blocks the file will get.
  uint64_t junk = MustCreate("/junk");
  WriteAll(junk, 0, std::vector<uint8_t>(8 * kFsBlockSize, 0xab));
  CHECK_OK(RunSim(sim_, fs_.Unlink("/junk")));

  uint64_t ino = MustCreate("/f");
  auto head = RandomBytes(1000, 20);
  WriteAll(ino, 0, head);
  const uint64_t at = 5 * kFsBlockSize + 100;
  auto tail = RandomBytes(300, 21);
  WriteAll(ino, at, tail);
  EXPECT_EQ(ReadAll(ino, 0, 1000), head);
  auto gap = ReadAll(ino, 1000, at - 1000);
  ASSERT_EQ(gap.size(), at - 1000);
  EXPECT_TRUE(std::all_of(gap.begin(), gap.end(),
                          [](uint8_t b) { return b == 0; }));
  EXPECT_EQ(ReadAll(ino, at, 300), tail);
}

TEST_F(FsTest, TruncateGrowAfterMidBlockShrinkZeroesOldTail) {
  uint64_t ino = MustCreate("/f");
  auto data = RandomBytes(3 * kFsBlockSize, 22);
  WriteAll(ino, 0, data);
  const uint64_t keep = kFsBlockSize + 500;
  CHECK_OK(RunSim(sim_, fs_.Truncate(ino, keep)));
  CHECK_OK(RunSim(sim_, fs_.Truncate(ino, 3 * kFsBlockSize)));
  auto all = ReadAll(ino, 0, 3 * kFsBlockSize);
  ASSERT_EQ(all.size(), 3 * kFsBlockSize);
  EXPECT_TRUE(std::equal(all.begin(), all.begin() + keep, data.begin()));
  EXPECT_TRUE(std::all_of(all.begin() + keep, all.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST_F(FsTest, FiemapCoversWrittenRange) {
  uint64_t ino = MustCreate("/f");
  WriteAll(ino, 0, RandomBytes(MiB(2), 10));
  auto extents = RunSim(sim_, fs_.Fiemap(ino, 0, MiB(2)));
  ASSERT_TRUE(extents.ok());
  uint64_t blocks = 0;
  for (const FsExtent& e : *extents) {
    blocks += e.len;
  }
  EXPECT_EQ(blocks, MiB(2) / kFsBlockSize);
}

TEST_F(FsTest, FiemapSubRangeTrimsExtents) {
  uint64_t ino = MustCreate("/f");
  WriteAll(ino, 0, RandomBytes(MiB(1), 11));
  // One block in the middle.
  auto extents =
      RunSim(sim_, fs_.Fiemap(ino, 7 * kFsBlockSize, kFsBlockSize));
  ASSERT_TRUE(extents.ok());
  ASSERT_EQ(extents->size(), 1u);
  EXPECT_EQ((*extents)[0].len, 1u);
  // Unaligned sub-range still covers its blocks.
  auto unaligned = RunSim(sim_, fs_.Fiemap(ino, 100, kFsBlockSize));
  ASSERT_TRUE(unaligned.ok());
  uint64_t blocks = 0;
  for (const FsExtent& e : *unaligned) {
    blocks += e.len;
  }
  EXPECT_EQ(blocks, 2u);  // spans two blocks
}

TEST_F(FsTest, FiemapBeyondEofIsEmpty) {
  uint64_t ino = MustCreate("/f");
  WriteAll(ino, 0, RandomBytes(100, 12));
  auto extents = RunSim(sim_, fs_.Fiemap(ino, KiB(64), KiB(4)));
  ASSERT_TRUE(extents.ok());
  EXPECT_TRUE(extents->empty());
}

TEST_F(FsTest, RemountPreservesEverything) {
  uint64_t ino = MustCreate("/persist");
  auto data = RandomBytes(MiB(1) + 137, 13);
  WriteAll(ino, 0, data);
  CHECK_OK(RunSim(sim_, fs_.Mkdir("/d")));
  MustCreate("/d/child");
  CHECK_OK(RunSim(sim_, fs_.Unmount()));

  SolrosFs fs2(&store_, &sim_);
  CHECK_OK(RunSim(sim_, fs2.Mount()));
  auto looked = RunSim(sim_, fs2.Lookup("/persist"));
  ASSERT_TRUE(looked.ok());
  std::vector<uint8_t> buf(data.size());
  auto n = RunSim(sim_, fs2.ReadAt(*looked, 0, buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(buf, data);
  EXPECT_TRUE(RunSim(sim_, fs2.Lookup("/d/child")).ok());
}

TEST_F(FsTest, MountRejectsGarbage) {
  MemBlockStore garbage(kFsBlockSize, 64);
  SolrosFs fs2(&garbage, &sim_);
  EXPECT_EQ(RunSim(sim_, fs2.Mount()).code(), ErrorCode::kIoError);
}

TEST_F(FsTest, OperationsRequireMount) {
  CHECK_OK(RunSim(sim_, fs_.Unmount()));
  EXPECT_EQ(RunSim(sim_, fs_.Create("/x")).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(RunSim(sim_, fs_.Lookup("/x")).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(FsTest, OutOfSpaceSurfacesCleanly) {
  // The store has 16384 blocks (~64 MiB); fill until failure.
  uint64_t ino = MustCreate("/hog");
  std::vector<uint8_t> chunk(MiB(8), 0x11);
  Status last;
  uint64_t written = 0;
  for (int i = 0; i < 32; ++i) {
    auto n = RunSim(sim_, fs_.WriteAt(ino, written, chunk));
    if (!n.ok()) {
      last = n.status();
      break;
    }
    written += *n;
  }
  EXPECT_EQ(last.code(), ErrorCode::kResourceExhausted);
  // The file system must still function after ENOSPC.
  CHECK_OK(RunSim(sim_, fs_.Unlink("/hog")));
  uint64_t ino2 = MustCreate("/after");
  WriteAll(ino2, 0, RandomBytes(1000, 14));
}

TEST_F(FsTest, OutOfInodesSurfacesCleanly) {
  // Formatted with 512 inodes; root takes one.
  Status last;
  int created = 0;
  for (int i = 0; i < 600; ++i) {
    auto r = RunSim(sim_, fs_.Create("/i" + std::to_string(i)));
    if (!r.ok()) {
      last = r.status();
      break;
    }
    ++created;
  }
  EXPECT_EQ(created, 511);
  EXPECT_EQ(last.code(), ErrorCode::kResourceExhausted);
}

TEST_F(FsTest, ManyFilesRandomizedRoundtrip) {
  Prng prng(42);
  struct FileInfo {
    uint64_t ino;
    std::vector<uint8_t> content;
  };
  std::vector<FileInfo> files;
  for (int i = 0; i < 40; ++i) {
    FileInfo info;
    info.ino = MustCreate("/rand" + std::to_string(i));
    info.content = RandomBytes(prng.NextInRange(1, KiB(128)), 100 + i);
    WriteAll(info.ino, 0, info.content);
    files.push_back(std::move(info));
  }
  // Interleaved partial overwrites.
  for (int round = 0; round < 100; ++round) {
    auto& f = files[prng.NextBelow(files.size())];
    uint64_t off = prng.NextBelow(f.content.size());
    uint64_t len =
        std::min<uint64_t>(f.content.size() - off,
                           prng.NextInRange(1, KiB(8)));
    auto patch = RandomBytes(len, 1000 + round);
    WriteAll(f.ino, off, patch);
    std::copy(patch.begin(), patch.end(), f.content.begin() + off);
  }
  for (const auto& f : files) {
    EXPECT_EQ(ReadAll(f.ino, 0, f.content.size()), f.content);
  }
}

// --- Allocator / bitmap invariants, cross-checked by fsck -------------------

// Shared helpers for tests that inspect or corrupt the raw image.
class FsInvariantTest : public FsTest {
 protected:
  SuperBlock ReadSuper() {
    SuperBlock sb;
    std::memcpy(&sb, store_.raw().data(), sizeof(sb));
    return sb;
  }

  // The serialized DiskInode of `ino` inside the on-disk inode table.
  uint8_t* InodeBytes(uint64_t ino) {
    SuperBlock sb = ReadSuper();
    uint64_t block = sb.inode_table_start + (ino - 1) / kInodesPerBlock;
    uint64_t slot = (ino - 1) % kInodesPerBlock;
    return store_.raw().data() + block * kFsBlockSize + slot * kInodeSize;
  }

  void FlipBlockBitmapBit(uint64_t lba) {
    SuperBlock sb = ReadSuper();
    uint8_t* byte =
        store_.raw().data() + sb.block_bitmap_start * kFsBlockSize + lba / 8;
    *byte ^= static_cast<uint8_t>(1u << (lba % 8));
  }

  void FlipInodeBitmapBit(uint64_t ino) {
    SuperBlock sb = ReadSuper();
    uint8_t* byte = store_.raw().data() +
                    sb.inode_bitmap_start * kFsBlockSize + (ino - 1) / 8;
    *byte ^= static_cast<uint8_t>(1u << ((ino - 1) % 8));
  }

  FsckReport MustFsck() {
    auto report = RunSim(sim_, RunFsck(&store_));
    CHECK_OK(report);
    return *report;
  }

  static bool HasFinding(const FsckReport& report, std::string_view code) {
    for (const FsckFinding& finding : report.findings) {
      if (finding.code == code) {
        return true;
      }
    }
    return false;
  }
};

TEST_F(FsInvariantTest, FreeCountAccountingAcrossOpSequence) {
  const uint64_t free_inodes0 = fs_.free_inodes();
  uint64_t a = MustCreate("/a");
  uint64_t b = MustCreate("/b");
  // Baseline after the creates, which also allocated the root directory's
  // first dirent block (it stays allocated after the unlinks below).
  const uint64_t base = fs_.free_blocks();
  EXPECT_EQ(fs_.free_inodes(), free_inodes0 - 2);

  WriteAll(a, 0, RandomBytes(KiB(40), 1));   // 10 blocks
  WriteAll(b, 0, RandomBytes(KiB(12), 2));   // 3 blocks
  EXPECT_EQ(fs_.free_blocks(), base - 13);
  // On-disk counts agree with the bitmaps and the reachable tree at every
  // checkpoint (metadata is written back at the end of each operation).
  EXPECT_TRUE(MustFsck().clean());

  CHECK_OK(RunSim(sim_, fs_.Truncate(a, KiB(16))));  // 10 -> 4 blocks
  EXPECT_EQ(fs_.free_blocks(), base - 7);
  EXPECT_TRUE(MustFsck().clean());

  // Unlinking returns every data block and both inodes to the pools.
  CHECK_OK(RunSim(sim_, fs_.Unlink("/a")));
  CHECK_OK(RunSim(sim_, fs_.Unlink("/b")));
  EXPECT_EQ(fs_.free_blocks(), base);
  EXPECT_EQ(fs_.free_inodes(), free_inodes0);
  FsckReport report = MustFsck();
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(FsInvariantTest, FsckDetectsDoubleAllocatedBlock) {
  uint64_t a = MustCreate("/a");
  uint64_t b = MustCreate("/b");
  WriteAll(a, 0, RandomBytes(kFsBlockSize, 3));
  WriteAll(b, 0, RandomBytes(kFsBlockSize, 4));
  CHECK_OK(RunSim(sim_, fs_.Unmount()));

  // Point b's single extent at a's block: two inodes now claim one block
  // (and b's original block leaks — referenced by nobody, marked in use).
  uint64_t a_start;
  std::memcpy(&a_start, InodeBytes(a) + offsetof(DiskInode, direct),
              sizeof(a_start));
  std::memcpy(InodeBytes(b) + offsetof(DiskInode, direct), &a_start,
              sizeof(a_start));

  FsckReport report = MustFsck();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(HasFinding(report, "bitmap.double-alloc")) << report.ToString();
  EXPECT_TRUE(HasFinding(report, "bitmap.leak")) << report.ToString();
}

TEST_F(FsInvariantTest, FsckDetectsFreedButReferencedBlock) {
  uint64_t a = MustCreate("/a");
  WriteAll(a, 0, RandomBytes(kFsBlockSize, 5));
  CHECK_OK(RunSim(sim_, fs_.Unmount()));

  // Simulate a double-free: clear the bitmap bit of a block /a still
  // references. The block could now be handed out again — exactly the
  // corruption fsck's cross-check exists to catch.
  uint64_t a_start;
  std::memcpy(&a_start, InodeBytes(a) + offsetof(DiskInode, direct),
              sizeof(a_start));
  FlipBlockBitmapBit(a_start);

  FsckReport report = MustFsck();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(HasFinding(report, "bitmap.not-marked")) << report.ToString();
  EXPECT_TRUE(HasFinding(report, "super.free-blocks-mismatch"))
      << report.ToString();
}

TEST_F(FsInvariantTest, FsckDetectsFreedButLinkedInode) {
  uint64_t a = MustCreate("/a");
  CHECK_OK(RunSim(sim_, fs_.Unmount()));
  FlipInodeBitmapBit(a);

  FsckReport report = MustFsck();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(HasFinding(report, "inode.not-marked")) << report.ToString();
}

TEST_F(FsInvariantTest, TruncateReleasesIndirectExtentBlock) {
  // Fragment /a by alternating single-block appends with /b: each append
  // lands on the next free block, so /a's extents cannot merge and it
  // spills into an indirect extent block.
  uint64_t a = MustCreate("/a");
  uint64_t b = MustCreate("/b");
  const uint64_t free_after_create = fs_.free_blocks();
  constexpr int kAppends = kDirectExtents + 8;
  for (int i = 0; i < kAppends; ++i) {
    WriteAll(a, uint64_t{static_cast<unsigned>(i)} * kFsBlockSize,
             RandomBytes(kFsBlockSize, 100 + i));
    WriteAll(b, uint64_t{static_cast<unsigned>(i)} * kFsBlockSize,
             RandomBytes(kFsBlockSize, 200 + i));
  }
  auto stat_a = RunSim(sim_, fs_.Stat("/a"));
  auto stat_b = RunSim(sim_, fs_.Stat("/b"));
  ASSERT_TRUE(stat_a.ok() && stat_b.ok());
  ASSERT_GT(stat_a->extent_count, static_cast<uint32_t>(kDirectExtents))
      << "workload failed to force an indirect extent block";
  ASSERT_GT(stat_b->extent_count, static_cast<uint32_t>(kDirectExtents));
  // Both files' data plus one indirect extent block each is allocated.
  EXPECT_EQ(fs_.free_blocks(), free_after_create - 2 * kAppends - 2);
  EXPECT_TRUE(MustFsck().clean());

  // Truncate to zero must return a's data blocks AND its indirect block;
  // b keeps its data and indirect block.
  CHECK_OK(RunSim(sim_, fs_.Truncate(a, 0)));
  EXPECT_EQ(fs_.free_blocks(), free_after_create - kAppends - 1);
  FsckReport report = MustFsck();
  EXPECT_TRUE(report.clean()) << report.ToString();  // no leaked indirect
}

// A store whose block-bitmap writes, data-region writes and inode-table
// reads take the simulated time Arm() sets, so one metadata write-out is
// still in flight when another operation runs. A read copies its bytes
// when issued, as a device may DMA them before the command completes.
class GatedStore : public MemBlockStore {
 public:
  using MemBlockStore::MemBlockStore;

  void Arm(Nanos bitmap_write, Nanos data_write, Nanos table_read) {
    SuperBlock sb;
    std::memcpy(&sb, raw().data(), sizeof(sb));
    bitmap_lba_ = sb.block_bitmap_start;
    table_start_ = sb.inode_table_start;
    data_start_ = sb.data_start;
    bitmap_write_ = bitmap_write;
    data_write_ = data_write;
    table_read_ = table_read;
  }

  Task<Status> Read(uint64_t lba, uint32_t nblocks,
                    std::span<uint8_t> out) override {
    Status status = co_await MemBlockStore::Read(lba, nblocks, out);
    if (lba >= table_start_ && lba < data_start_) {
      co_await Delay(table_read_);
    }
    co_return status;
  }

  Task<Status> Write(uint64_t lba, uint32_t nblocks,
                     std::span<const uint8_t> in) override {
    if (lba == bitmap_lba_ && failing_bitmap_writes > 0) {
      --failing_bitmap_writes;
      co_return IoError("injected block-bitmap write failure");
    }
    if (lba == bitmap_lba_) {
      co_await Delay(bitmap_write_);
    } else if (lba >= data_start_) {
      co_await Delay(data_write_);
    }
    co_return co_await MemBlockStore::Write(lba, nblocks, in);
  }

  int failing_bitmap_writes = 0;  // armed block-bitmap writes that fail

 private:
  uint64_t bitmap_lba_ = UINT64_MAX;
  uint64_t table_start_ = UINT64_MAX;
  uint64_t data_start_ = UINT64_MAX;
  Nanos bitmap_write_ = 0;
  Nanos data_write_ = 0;
  Nanos table_read_ = 0;
};

// fsck's reports when /b's write returns and after the unmount.
struct StaggeredReports {
  FsckReport at_b_return;
  FsckReport after_unmount;
};

// Formats a journal-off volume on `store`, creates /a and /b (inodes 2 and
// 3, one inode-table block), arms the store's gates and writes one block
// to /a at 0 us and to /b at `b_start`, then unmounts.
StaggeredReports TwoStaggeredWrites(Simulator& sim, GatedStore& store,
                                    Nanos table_read, Nanos b_start) {
  SolrosFs fs(&store, &sim);
  CHECK_OK(RunSim(sim, fs.Format(512)));
  auto a = RunSim(sim, fs.Create("/a"));
  auto b = RunSim(sim, fs.Create("/b"));
  CHECK_OK(a);
  CHECK_OK(b);
  store.Arm(Microseconds(100), Microseconds(200), table_read);
  StaggeredReports reports;
  const std::vector<uint8_t> block(kFsBlockSize, 0x5a);
  auto write_a = [&]() -> Task<void> {
    CHECK_OK(co_await fs.WriteAt(*a, 0, block));
  };
  auto write_b = [&]() -> Task<void> {
    co_await Delay(b_start);
    CHECK_OK(co_await fs.WriteAt(*b, 0, block));
    auto report = co_await RunFsck(&store);
    CHECK_OK(report);
    reports.at_b_return = *report;
  };
  Spawn(sim, write_a());
  Spawn(sim, write_b());
  sim.RunUntilIdle();
  CHECK_OK(RunSim(sim, fs.Unmount()));
  auto report = RunSim(sim, RunFsck(&store));
  CHECK_OK(report);
  reports.after_unmount = *report;
  return reports;
}

TEST_F(FsInvariantTest, JournalOffWriteOutKeepsAllocationsMadeDuringIt) {
  // /a's write-out is writing the block bitmap (200-300 us) when /b's
  // write allocates its block (250 us).
  GatedStore store(kFsBlockSize, 16384);
  StaggeredReports reports = TwoStaggeredWrites(
      sim_, store, /*table_read=*/0, /*b_start=*/Microseconds(250));
  EXPECT_TRUE(reports.at_b_return.clean()) << reports.at_b_return.ToString();
  EXPECT_TRUE(reports.after_unmount.clean())
      << reports.after_unmount.ToString();
}

TEST_F(FsInvariantTest, JournalOffWriteOutsKeepEachOthersInodes) {
  // /a's write-out reads the inode-table block at 300 us and writes it at
  // 600 us; /b's reads the same block at 550 us, before /a's bytes land,
  // and writes it at 850 us. /b's write must still carry /a's new inode.
  GatedStore store(kFsBlockSize, 16384);
  StaggeredReports reports =
      TwoStaggeredWrites(sim_, store, /*table_read=*/Microseconds(300),
                         /*b_start=*/Microseconds(250));
  EXPECT_TRUE(reports.at_b_return.clean()) << reports.at_b_return.ToString();
  EXPECT_TRUE(reports.after_unmount.clean())
      << reports.after_unmount.ToString();
}

TEST_F(FsInvariantTest, JournalOffWriteReturnsAfterTheWriteOutCarryingIt) {
  // /b allocates at 50 us, so /a's write-out (captured at 200 us, bitmap
  // landing at 300 us) carries /b's allocation; /b's own write-out ends at
  // 250 us with only its inode, and /b must not return before 300 us.
  GatedStore store(kFsBlockSize, 16384);
  StaggeredReports reports = TwoStaggeredWrites(
      sim_, store, /*table_read=*/0, /*b_start=*/Microseconds(50));
  EXPECT_TRUE(reports.at_b_return.clean()) << reports.at_b_return.ToString();
  EXPECT_TRUE(reports.after_unmount.clean())
      << reports.after_unmount.ToString();
}

TEST_F(FsInvariantTest, OlderJournalOffWriteOutKeepsNewerInodeState) {
  // /a's 100-byte write-out is writing the block bitmap (0-100 us) when a
  // PrepareWrite grows /a to 4096 bytes (50 us) without allocating; that
  // write-out lands the inode-table block first. The older write-out's
  // table write must not put the 100-byte size back.
  GatedStore store(kFsBlockSize, 16384);
  SolrosFs fs(&store, &sim_);
  CHECK_OK(RunSim(sim_, fs.Format(512)));
  auto a = RunSim(sim_, fs.Create("/a"));
  CHECK_OK(a);
  store.Arm(Microseconds(100), 0, 0);
  const std::vector<uint8_t> bytes(100, 0x5a);
  auto write = [&]() -> Task<void> {
    auto n = co_await fs.WriteAt(*a, 0, bytes);
    CHECK_OK(n);
  };
  auto prepare = [&]() -> Task<void> {
    co_await Delay(Microseconds(50));
    auto extents = co_await fs.PrepareWrite(*a, 0, kFsBlockSize);
    CHECK_OK(extents);
  };
  Spawn(sim_, write());
  Spawn(sim_, prepare());
  sim_.RunUntilIdle();
  CHECK_OK(RunSim(sim_, fs.Unmount()));

  SolrosFs remounted(&store, &sim_);
  CHECK_OK(RunSim(sim_, remounted.Mount()));
  auto stat = RunSim(sim_, remounted.Stat("/a"));
  ASSERT_TRUE(stat.ok()) << stat.status().ToString();
  EXPECT_EQ(stat->size, kFsBlockSize);
  auto report = RunSim(sim_, RunFsck(&store));
  CHECK_OK(report);
  EXPECT_TRUE(report->clean()) << report->ToString();
}

TEST_F(FsInvariantTest, OlderJournalOffWriteOutKeepsNewerInodeBitmap) {
  // Unlinking /a starts a write-out of the superblock and both bitmaps at
  // 0 us; its block-bitmap write takes until 100 us. Creating /c at 50 us
  // starts one of the superblock and the inode bitmap only, which lands
  // first. The older write-out's inode-bitmap write must keep /c's bit.
  GatedStore store(kFsBlockSize, 16384);
  SolrosFs fs(&store, &sim_);
  CHECK_OK(RunSim(sim_, fs.Format(512)));
  auto a = RunSim(sim_, fs.Create("/a"));
  CHECK_OK(a);
  const std::vector<uint8_t> block(kFsBlockSize, 0x5a);
  CHECK_OK(RunSim(sim_, fs.WriteAt(*a, 0, block)));
  store.Arm(Microseconds(100), 0, 0);
  auto unlink = [&]() -> Task<void> { CHECK_OK(co_await fs.Unlink("/a")); };
  auto create = [&]() -> Task<void> {
    co_await Delay(Microseconds(50));
    auto c = co_await fs.Create("/c");
    CHECK_OK(c);
  };
  Spawn(sim_, unlink());
  Spawn(sim_, create());
  sim_.RunUntilIdle();
  CHECK_OK(RunSim(sim_, fs.Unmount()));
  auto report = RunSim(sim_, RunFsck(&store));
  CHECK_OK(report);
  EXPECT_TRUE(report->clean()) << report->ToString();
}

TEST_F(FsInvariantTest, FailedJournalOffWriteOutIsWrittenBySync) {
  GatedStore store(kFsBlockSize, 16384);
  SolrosFs fs(&store, &sim_);
  CHECK_OK(RunSim(sim_, fs.Format(512)));
  auto a = RunSim(sim_, fs.Create("/a"));
  CHECK_OK(a);
  store.Arm(0, 0, 0);
  store.failing_bitmap_writes = 1;
  const std::vector<uint8_t> block(kFsBlockSize, 0x5a);
  EXPECT_EQ(RunSim(sim_, fs.WriteAt(*a, 0, block)).code(),
            ErrorCode::kIoError);
  // The failed write-out's superblock landed, its bitmap and inode did
  // not; their flags are set again, so the unmount writes them.
  CHECK_OK(RunSim(sim_, fs.Unmount()));
  auto report = RunSim(sim_, RunFsck(&store));
  CHECK_OK(report);
  EXPECT_TRUE(report->clean()) << report->ToString();
}

}  // namespace
}  // namespace solros
