// Checkpoint container: round-trip property over random payloads, a
// corruption matrix (every mutation must be rejected with a Status, never
// accepted or crashed on), and fault-injected atomic writes.
#include "util/bytes.h"
#include "util/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "util/atomic_io.h"
#include "util/fault.h"
#include "util/random.h"

namespace lamo {
namespace {

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    static int counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("lamo_ckpt_test_" + std::to_string(getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A random stage payload mimicking real checkpoint state: a mix of scalar
/// fields and variable-length strings.
std::string RandomPayload(Rng& rng) {
  ByteWriter writer;
  const size_t fields = rng.Uniform(20);
  for (size_t i = 0; i < fields; ++i) {
    switch (rng.Uniform(4)) {
      case 0:
        writer.PutU32(static_cast<uint32_t>(rng.Next64()));
        break;
      case 1:
        writer.PutU64(rng.Next64());
        break;
      case 2:
        writer.PutDouble(rng.NextDouble());
        break;
      default: {
        std::string s;
        const size_t len = rng.Uniform(64);
        for (size_t j = 0; j < len; ++j) {
          s.push_back(static_cast<char>(rng.Uniform(256)));
        }
        writer.PutString(s);
        break;
      }
    }
  }
  return writer.TakeBytes();
}

TEST(CheckpointTest, RoundTripsRandomPayloads) {
  ScratchDir dir;
  Rng rng(20260806);
  for (int trial = 0; trial < 50; ++trial) {
    const std::string payload = RandomPayload(rng);
    const uint64_t fingerprint = rng.Next64();
    const std::string stage = "stage" + std::to_string(trial % 5);
    ASSERT_TRUE(SaveCheckpoint(dir.str(), stage, fingerprint, payload).ok());
    std::string reloaded;
    ASSERT_TRUE(
        LoadCheckpoint(dir.str(), stage, fingerprint, &reloaded).ok());
    EXPECT_EQ(reloaded, payload) << "trial " << trial;
  }
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  ScratchDir dir;
  std::string payload;
  const Status status = LoadCheckpoint(dir.str(), "absent", 1, &payload);
  EXPECT_TRUE(status.IsNotFound()) << status.ToString();
}

TEST(CheckpointTest, FingerprintMismatchIsFailedPrecondition) {
  ScratchDir dir;
  ASSERT_TRUE(SaveCheckpoint(dir.str(), "stage", 111, "payload").ok());
  std::string payload;
  const Status status = LoadCheckpoint(dir.str(), "stage", 222, &payload);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
}

TEST(CheckpointTest, StageNameMismatchRejected) {
  ScratchDir dir;
  ASSERT_TRUE(SaveCheckpoint(dir.str(), "mine", 1, "payload").ok());
  // Copy the file under another stage's name: the embedded stage string no
  // longer matches and the load must fail.
  std::filesystem::copy_file(CheckpointPath(dir.str(), "mine"),
                             CheckpointPath(dir.str(), "label"));
  std::string payload;
  EXPECT_FALSE(LoadCheckpoint(dir.str(), "label", 1, &payload).ok());
}

/// Every single-byte flip and every truncation of a valid checkpoint must be
/// rejected with a non-OK Status — corruption can cost a restart but never
/// a silently wrong resume.
TEST(CheckpointTest, CorruptionMatrixRejectsEveryMutation) {
  ScratchDir dir;
  Rng rng(99);
  const std::string payload = RandomPayload(rng);
  ASSERT_TRUE(SaveCheckpoint(dir.str(), "stage", 1234, payload).ok());
  const std::string path = CheckpointPath(dir.str(), "stage");
  const std::string pristine = ReadWholeFile(path);
  ASSERT_GT(pristine.size(), 24u);

  // Truncations at every prefix length.
  for (size_t len = 0; len < pristine.size(); ++len) {
    WriteWholeFile(path, pristine.substr(0, len));
    std::string out;
    const Status status = LoadCheckpoint(dir.str(), "stage", 1234, &out);
    EXPECT_FALSE(status.ok()) << "accepted truncation to " << len << " bytes";
  }

  // Bit flips in every byte (one randomly chosen bit per byte keeps the
  // matrix quadratic-free; the checksum covers all positions equally).
  for (size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string mutated = pristine;
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1u << rng.Uniform(8)));
    WriteWholeFile(path, mutated);
    std::string out;
    const Status status = LoadCheckpoint(dir.str(), "stage", 1234, &out);
    EXPECT_FALSE(status.ok()) << "accepted bit flip at byte " << pos;
  }

  // Trailing garbage after a valid container.
  WriteWholeFile(path, pristine + "x");
  std::string out;
  EXPECT_FALSE(LoadCheckpoint(dir.str(), "stage", 1234, &out).ok());

  // The pristine bytes still load (the matrix itself didn't wear them out).
  WriteWholeFile(path, pristine);
  ASSERT_TRUE(LoadCheckpoint(dir.str(), "stage", 1234, &out).ok());
  EXPECT_EQ(out, payload);
}

TEST(CheckpointTest, SaveReplacesAtomically) {
  ScratchDir dir;
  ASSERT_TRUE(SaveCheckpoint(dir.str(), "stage", 1, "first").ok());
  ASSERT_TRUE(SaveCheckpoint(dir.str(), "stage", 1, "second").ok());
  std::string payload;
  ASSERT_TRUE(LoadCheckpoint(dir.str(), "stage", 1, &payload).ok());
  EXPECT_EQ(payload, "second");
  // No tmp file may survive a successful save.
  EXPECT_FALSE(std::filesystem::exists(
      AtomicTmpPath(CheckpointPath(dir.str(), "stage"))));
}

TEST(AtomicIoFaultTest, ShortWritesAndEintrAreRecovered) {
  ScratchDir dir;
  const std::string path = dir.str() + "/file.txt";
  std::string big(300000, 'a');
  for (size_t i = 0; i < big.size(); i += 37) big[i] = 'b';

  FaultArmForTest("atomic.write:1:short_write");
  EXPECT_TRUE(WriteFileAtomic(path, big).ok());
  EXPECT_EQ(ReadWholeFile(path), big);

  FaultArmForTest("atomic.write:2:eintr");
  EXPECT_TRUE(WriteFileAtomic(path, big + "tail").ok());
  EXPECT_EQ(ReadWholeFile(path), big + "tail");
  FaultArmForTest(nullptr);
}

TEST(ReadFileToStringTest, ReadsExactlyTheFileWhateverItsSize) {
  ScratchDir dir;
  const std::string path = dir.str() + "/file.bin";
  std::string out(1000, 'x');  // stale contents must not survive a read
  for (const size_t size : {size_t{0}, size_t{1}, size_t{300001}}) {
    std::string bytes(size, '\0');
    for (size_t i = 0; i < size; ++i) bytes[i] = static_cast<char>(i * 131);
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    ASSERT_TRUE(ReadFileToString(path, &out).ok());
    EXPECT_EQ(out, bytes) << size;
  }
  EXPECT_TRUE(ReadFileToString(dir.str() + "/none", &out).IsNotFound());
}

TEST(ReadFileToStringTest, ReadsAStreamFstatCannotSize) {
  // A FIFO reports size 0, so the buffer grows until read returns 0.
  ScratchDir dir;
  const std::string path = dir.str() + "/fifo";
  ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
  std::string bytes(200000, 'q');
  bytes[123457] = 'z';
  std::thread writer([&] { std::ofstream(path, std::ios::binary) << bytes; });
  std::string out;
  const Status status = ReadFileToString(path, &out);
  writer.join();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(out, bytes);
}

TEST(AtomicIoFaultTest, InjectedErrorLeavesPreviousFileIntact) {
  ScratchDir dir;
  const std::string path = dir.str() + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "old contents").ok());

  FaultArmForTest("atomic.write:1:error");
  size_t fsyncs = 0;
  const Status status = WriteFileAtomic(path, "new contents", &fsyncs);
  FaultArmForTest(nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(fsyncs, 0u);
  // The failed replace must not leave a tmp file or touch the old contents.
  EXPECT_EQ(ReadWholeFile(path), "old contents");
  EXPECT_FALSE(std::filesystem::exists(AtomicTmpPath(path)));
}

TEST(AtomicIoFaultTest, FsyncCounterCountsDurableReplaces) {
  ScratchDir dir;
  const std::string path = dir.str() + "/file.txt";
  size_t fsyncs = 0;
  ASSERT_TRUE(WriteFileAtomic(path, "a", &fsyncs).ok());
  ASSERT_TRUE(WriteFileAtomic(path, "b", &fsyncs).ok());
  EXPECT_EQ(fsyncs, 2u);
}

TEST(CheckpointFaultTest, InjectedSaveErrorIsReported) {
  ScratchDir dir;
  FaultArmForTest("checkpoint.save:1:error");
  const Status status = SaveCheckpoint(dir.str(), "stage", 1, "payload");
  FaultArmForTest(nullptr);
  EXPECT_FALSE(status.ok());
  // A failed save must not leave a checkpoint behind that a resume would
  // then trust.
  std::string payload;
  EXPECT_TRUE(LoadCheckpoint(dir.str(), "stage", 1, &payload).IsNotFound());
}

}  // namespace
}  // namespace lamo
