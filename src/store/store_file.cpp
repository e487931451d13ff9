#include "src/store/store_file.h"

#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

namespace neo::store {

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void ByteWriter::PutU32(uint32_t v) {
  uint8_t b[4];
  std::memcpy(b, &v, 4);
  buf_.insert(buf_.end(), b, b + 4);
}

void ByteWriter::PutU64(uint64_t v) {
  uint8_t b[8];
  std::memcpy(b, &v, 8);
  buf_.insert(buf_.end(), b, b + 8);
}

void ByteWriter::PutF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits);
}

void ByteWriter::PutBytes(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

bool ByteReader::Need(size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::GetU8() {
  if (!Need(1)) return 0;
  return data_[pos_++];
}

uint32_t ByteReader::GetU32() {
  if (!Need(4)) return 0;
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

uint64_t ByteReader::GetU64() {
  if (!Need(8)) return 0;
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

double ByteReader::GetF64() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string ByteReader::GetString() {
  const uint32_t n = GetU32();
  if (!Need(n)) return std::string();
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

util::Status ReadFileBytes(const std::string& path,
                           std::vector<uint8_t>* out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return util::Status::NotFound("no file: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return util::Status::Internal("ftell failed: " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      std::fread(out->data(), 1, out->size(), f) != out->size()) {
    std::fclose(f);
    return util::Status::Internal("short read: " + path);
  }
  std::fclose(f);
  return util::Status::Ok();
}

util::Status AtomicWriteFile(const std::string& path, const void* data,
                             size_t n, util::FaultInjector* injector,
                             uint64_t file_key, bool* crashed_out) {
  if (crashed_out != nullptr && *crashed_out) return util::Status::Ok();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return util::Status::Internal("cannot create: " + tmp);

  size_t landing = n;
  bool crashed = false;
  if (injector != nullptr && injector->enabled()) {
    if (injector->DrawIoFailure(file_key)) {
      std::fclose(f);
      std::remove(tmp.c_str());
      return util::Status::Internal("injected EIO writing " + tmp);
    }
    const size_t short_len = injector->PerturbWriteLength(file_key, n);
    if (short_len < n) {
      // A detected short write: the writer *sees* fwrite return short, so it
      // aborts the publish and the old file stays authoritative.
      std::fclose(f);
      std::remove(tmp.c_str());
      return util::Status::Internal("injected short write on " + tmp);
    }
    const size_t budget = injector->ConsumeIoBudget(n);
    if (budget < n) {
      // Crash emulation: a prefix lands in the tmp file, the rename never
      // happens, and (like a real kill) the caller is told nothing went
      // wrong. Recovery must come up from the previous published file.
      landing = budget;
      crashed = true;
    }
  }

  if (landing > 0 && std::fwrite(data, 1, landing, f) != landing) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return util::Status::Internal("short write: " + tmp);
  }
  if (crashed) {
    std::fclose(f);
    if (crashed_out != nullptr) *crashed_out = true;
    return util::Status::Ok();
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return util::Status::Internal("fflush failed: " + tmp);
  }
  ::fsync(::fileno(f));
  std::fclose(f);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::Internal("rename failed: " + path);
  }
  return util::Status::Ok();
}

util::Status ReadWal(const std::string& path, WalReadResult* result) {
  result->records.clear();
  result->valid_bytes = 0;
  result->torn_bytes = 0;
  result->corruption = false;

  std::vector<uint8_t> bytes;
  util::Status s = ReadFileBytes(path, &bytes);
  if (!s.ok()) return s;

  // A file shorter than the header is a torn initial header write (crash
  // during creation): recover as an empty log, not as corruption.
  if (bytes.size() < 8) {
    result->torn_bytes = bytes.size();
    return util::Status::Ok();
  }
  ByteReader header(bytes.data(), 8);
  const uint32_t magic = header.GetU32();
  const uint32_t version = header.GetU32();
  if (magic != kWalMagic) {
    return util::Status::DataLoss("bad WAL magic in " + path);
  }
  if (version != kWalVersion) {
    return util::Status::DataLoss("unsupported WAL version in " + path);
  }
  result->valid_bytes = 8;

  size_t pos = 8;
  constexpr size_t kFrameOverhead = 4 + 4 + 8 + 8;  // len + type + lsn + fnv
  while (pos < bytes.size()) {
    const size_t left = bytes.size() - pos;
    if (left < 4) break;  // torn: not even a length field
    uint32_t payload_len;
    std::memcpy(&payload_len, bytes.data() + pos, 4);
    if (payload_len > kMaxPayloadLen) {
      // A length this large never came from the writer: bit rot in the
      // length field itself. Corruption, not a torn tail.
      result->corruption = true;
      break;
    }
    const size_t frame_len = kFrameOverhead + payload_len;
    if (left < frame_len) break;  // torn final frame
    const size_t body_len = frame_len - 8;
    const uint64_t expect = Fnv1a(bytes.data() + pos, body_len);
    uint64_t stored;
    std::memcpy(&stored, bytes.data() + pos + body_len, 8);
    if (stored != expect) {
      result->corruption = true;
      break;
    }
    WalRecord rec;
    ByteReader r(bytes.data() + pos + 4, 4 + 8);
    rec.type = r.GetU32();
    rec.lsn = r.GetU64();
    rec.payload.assign(bytes.data() + pos + 16,
                       bytes.data() + pos + 16 + payload_len);
    result->records.push_back(std::move(rec));
    pos += frame_len;
    result->valid_bytes = pos;
  }
  if (result->corruption) {
    return util::Status::DataLoss("WAL record failed checksum in " + path +
                                  " (valid prefix kept)");
  }
  result->torn_bytes = bytes.size() - result->valid_bytes;
  return util::Status::Ok();
}

util::Status WalWriter::Open(const std::string& path, uint64_t valid_bytes) {
  if (crashed_) return util::Status::Ok();  // dead process: no disk effects
  Close();
  path_ = path;
  file_key_ = Fnv1a(path.data(), path.size());
  failed_ = false;
  pending_bytes_ = 0;

  if (valid_bytes < 8) {
    // Fresh log (or a torn header): start over with a clean header.
    f_ = std::fopen(path.c_str(), "wb");
    if (f_ == nullptr) return util::Status::Internal("cannot create: " + path);
    ByteWriter header;
    header.PutU32(kWalMagic);
    header.PutU32(kWalVersion);
    good_bytes_ = 0;
    util::Status s = InjectedWrite(header.bytes().data(), header.size());
    if (!s.ok()) return s;
    good_bytes_ = 8;
    return Sync();
  }

  // Drop any torn tail before appending: a new frame written after garbage
  // would be unreachable to recovery (the parse stops at the garbage).
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return util::Status::Internal("truncate failed: " + path);
  }
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) return util::Status::Internal("cannot append: " + path);
  good_bytes_ = valid_bytes;
  return util::Status::Ok();
}

util::Status WalWriter::InjectedWrite(const void* data, size_t n) {
  if (crashed_) return util::Status::Ok();
  if (failed_) {
    return util::Status::FailedPrecondition("WAL writer is failed; Reset()");
  }
  if (f_ == nullptr) {
    return util::Status::FailedPrecondition("WAL writer is not open");
  }
  size_t landing = n;
  if (injector_ != nullptr && injector_->enabled()) {
    if (injector_->DrawIoFailure(file_key_)) {
      failed_ = true;
      return util::Status::Internal("injected EIO on " + path_);
    }
    const size_t short_len = injector_->PerturbWriteLength(file_key_, n);
    if (short_len < n) {
      // Detected short write: land the prefix (torn frame on disk), latch
      // failed; Reset() truncates back to the last good boundary.
      if (short_len > 0) std::fwrite(data, 1, short_len, f_);
      std::fflush(f_);
      failed_ = true;
      return util::Status::DataLoss("injected short write on " + path_);
    }
    const size_t budget = injector_->ConsumeIoBudget(n);
    if (budget < n) {
      // Silent: the "process" believes the bytes landed but dies here; the
      // crashed latch freezes the file at this exact byte.
      landing = budget;
      crashed_ = true;
    }
  }
  if (landing > 0 && std::fwrite(data, 1, landing, f_) != landing) {
    failed_ = true;
    return util::Status::Internal("fwrite failed: " + path_);
  }
  if (crashed_) std::fflush(f_);
  return util::Status::Ok();
}

util::Status WalWriter::AppendRecord(uint32_t type, uint64_t lsn,
                                     const void* payload,
                                     size_t payload_len) {
  NEO_CHECK(payload_len <= kMaxPayloadLen);
  ByteWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload_len));
  frame.PutU32(type);
  frame.PutU64(lsn);
  frame.PutBytes(payload, payload_len);
  frame.PutU64(Fnv1a(frame.bytes().data(), frame.size()));
  util::Status s = InjectedWrite(frame.bytes().data(), frame.size());
  if (!s.ok()) return s;
  good_bytes_ += frame.size();
  pending_bytes_ += frame.size();
  return util::Status::Ok();
}

util::Status WalWriter::Sync() {
  if (crashed_) return util::Status::Ok();
  if (failed_) {
    return util::Status::FailedPrecondition("WAL writer is failed; Reset()");
  }
  if (f_ == nullptr) {
    return util::Status::FailedPrecondition("WAL writer is not open");
  }
  if (std::fflush(f_) != 0) {
    failed_ = true;
    return util::Status::Internal("fflush failed: " + path_);
  }
  ::fsync(::fileno(f_));
  pending_bytes_ = 0;
  return util::Status::Ok();
}

util::Status WalWriter::Reset() {
  if (crashed_) return util::Status::Ok();
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
  failed_ = false;
  // Re-truncate to the last boundary every byte of which landed, dropping
  // the torn frame a short write left behind, then resume appending.
  const std::string path = path_;
  return Open(path, good_bytes_);
}

void WalWriter::Close() {
  if (f_ != nullptr) {
    if (!failed_ && !crashed_) {
      std::fflush(f_);
      ::fsync(::fileno(f_));
    }
    std::fclose(f_);
    f_ = nullptr;
  }
}

}  // namespace neo::store
