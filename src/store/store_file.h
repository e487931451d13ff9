// On-disk primitives for the experience store: checksummed byte buffers, an
// append-only WAL writer/reader with per-record framing, and atomic
// whole-file publication. All formats follow the PR-6 weight-checkpoint
// discipline — magic, version, FNV-1a checksum, util::Status on every
// fallible path — and every write funnels through the (optional) attached
// util::FaultInjector's file-I/O sites so recovery is exercised under the CI
// fault matrix.
//
// WAL frame layout (after an 8-byte file header of magic 'NEOL' + version):
//
//   [u32 payload_len][u32 record_type][u64 lsn][payload][u64 fnv1a]
//
// where the checksum covers every preceding byte of the frame. A reader
// accepts the longest valid prefix: a frame cut short at EOF is a *torn
// tail* (normal crash debris — silently dropped, at most the unsynced suffix
// is lost), while a full-length frame whose checksum mismatches is
// *corruption* (reported as kDataLoss, never silently loaded). Appending
// after recovery first truncates the file to the valid prefix so old torn
// bytes can never be misparsed as the start of a new record.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/fault_injector.h"
#include "src/util/status.h"

namespace neo::store {

inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// Chainable FNV-1a over a byte range (pass the previous return value as `h`
/// to extend a running checksum).
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = kFnvOffsetBasis);

/// Little-endian append-only serializer into a growable byte buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutF64(double v);
  void PutBytes(const void* data, size_t n);
  /// Length-prefixed (u32) string.
  void PutString(const std::string& s);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte range. Any read
/// past the end latches ok() to false and returns zeros; callers check ok()
/// once after a parse instead of after every field.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}

  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  double GetF64();
  std::string GetString();

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Need(size_t n);
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads a whole file into `out`. kNotFound if the file does not exist.
util::Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// Publishes `n` bytes at `path` atomically: write to `path + ".tmp"`, flush
/// + fsync, rename over the target. Readers therefore see either the old
/// complete file or the new complete file, never a partial write. The
/// attached injector (nullable) can fail the write (EIO), tear it (short
/// write), or cut it at the crash budget; on any injected or real failure
/// the tmp file is removed and the old file is left intact. A crash-budget
/// cut returns Ok — the emulated process died believing the write landed —
/// but sets `*crashed` (when non-null) so the store can stop touching disk,
/// exactly as a killed process would.
util::Status AtomicWriteFile(const std::string& path, const void* data,
                             size_t n, util::FaultInjector* injector,
                             uint64_t file_key, bool* crashed = nullptr);

struct WalRecord {
  uint32_t type = 0;
  uint64_t lsn = 0;
  std::vector<uint8_t> payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  /// Byte length of the longest valid prefix (header + whole valid frames).
  /// Appenders must truncate the file to this before writing.
  uint64_t valid_bytes = 0;
  /// Bytes past the valid prefix that parse as an incomplete final frame
  /// (torn tail; expected crash debris).
  uint64_t torn_bytes = 0;
  /// True if a *complete* frame failed its checksum (bit rot, not a crash).
  bool corruption = false;
};

/// Parses the longest valid prefix of the WAL at `path` into `result`.
/// kNotFound: no file (fresh store). kOk: every frame valid, or only a torn
/// tail dropped. kDataLoss: bad header, or a complete frame failed its
/// checksum — `result` still holds the valid prefix so the caller can mount
/// a degraded (but never silently wrong) recovery.
util::Status ReadWal(const std::string& path, WalReadResult* result);

/// Appender for the WAL format above. Not thread-safe; the store serializes.
class WalWriter {
 public:
  ~WalWriter() { Close(); }

  /// Opens `path` for appending at offset `valid_bytes` (from ReadWal; pass
  /// 0 to create/overwrite with a fresh header). The file is truncated to
  /// that offset first so stale torn bytes are unreachable.
  util::Status Open(const std::string& path, uint64_t valid_bytes);

  /// Appends one frame. After an injected or real write failure the writer
  /// latches failed() and every subsequent append returns
  /// kFailedPrecondition until Reset(); the bytes on disk up to the last
  /// successful Sync() remain a valid prefix.
  util::Status AppendRecord(uint32_t type, uint64_t lsn, const void* payload,
                            size_t payload_len);

  /// fflush + fsync. Durability boundary: frames appended before a
  /// successful Sync survive any later crash.
  util::Status Sync();

  /// Recovers from a latched failure: re-truncates the file to the last
  /// known-good frame boundary and reopens for append.
  util::Status Reset();

  void Close();

  bool failed() const { return failed_; }
  /// True once the injector's crash budget cut a write: the emulated process
  /// is dead past that byte, so every later operation on this writer is a
  /// silent no-op (no writes, no truncation, no fsync) and the on-disk state
  /// stays frozen at the kill point until a fresh writer recovers it.
  bool crashed() const { return crashed_; }
  /// Known-good byte length (every frame up to here fully landed).
  uint64_t good_bytes() const { return good_bytes_; }

  void SetFaultInjector(util::FaultInjector* injector) { injector_ = injector; }

 private:
  /// Writes through the injector's short-write / EIO / crash-budget sites.
  /// A crash-budget drop returns ok (the "process" believes the write
  /// landed — exactly what a kill does); short write and EIO return errors.
  util::Status InjectedWrite(const void* data, size_t n);

  std::FILE* f_ = nullptr;
  std::string path_;
  uint64_t good_bytes_ = 0;
  uint64_t pending_bytes_ = 0;  ///< Appended since the last Sync.
  bool failed_ = false;
  bool crashed_ = false;
  util::FaultInjector* injector_ = nullptr;
  uint64_t file_key_ = 0;
  /// Cumulative bytes this writer has attempted; compared against the
  /// injector's crash budget (io_truncate_at).
  uint64_t lifetime_bytes_ = 0;
};

inline constexpr uint32_t kWalMagic = 0x4c4f454eu;       // "NEOL"
inline constexpr uint32_t kSnapshotMagic = 0x544f454eu;  // "NEOT"
inline constexpr uint32_t kWalVersion = 1;
inline constexpr uint32_t kSnapshotVersion = 2;
/// Sanity cap on a frame's payload length; anything larger is treated as
/// corruption, not an allocation request.
inline constexpr uint32_t kMaxPayloadLen = 16u << 20;

}  // namespace neo::store
