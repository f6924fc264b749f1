#include "ckpt/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "ckpt/crc32.hpp"
#include "support/error.hpp"

namespace scmd::ckpt {

namespace {

constexpr std::size_t kHeaderSize = sizeof(std::uint64_t) +
                                    sizeof(std::uint32_t);
constexpr std::size_t kFrameHeaderSize = 3 * sizeof(std::uint32_t);

void write_all(int fd, const void* data, std::size_t size,
               const std::string& path) {
  const auto* p = static_cast<const std::byte*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, p + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      SCMD_REQUIRE(false,
                   "WAL write failed for " + path + ": " +
                       std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// CRC over (type, length, payload) — the whole frame minus the CRC
/// field itself, so a corrupted length is as detectable as a corrupted
/// payload.
std::uint32_t frame_crc(std::uint32_t type, std::uint32_t len,
                        const std::byte* payload) {
  std::uint32_t c = crc32(&type, sizeof(type));
  c = crc32(&len, sizeof(len), c);
  return crc32(payload, len, c);
}

}  // namespace

WalScan scan_wal(const std::string& path) {
  const Bytes bytes = read_file(path);
  SCMD_REQUIRE(bytes.size() >= kHeaderSize,
               path + " is too short to be a WAL");
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
  SCMD_REQUIRE(magic == kWalMagic, path + " is not an SC-MD WAL");
  SCMD_REQUIRE(version == kWalVersion,
               "unsupported WAL version in " + path);

  WalScan scan;
  std::size_t off = kHeaderSize;
  while (off < bytes.size()) {
    if (bytes.size() - off < kFrameHeaderSize) break;  // torn header
    std::uint32_t type = 0, len = 0, want_crc = 0;
    std::memcpy(&type, bytes.data() + off, sizeof(type));
    std::memcpy(&len, bytes.data() + off + 4, sizeof(len));
    std::memcpy(&want_crc, bytes.data() + off + 8, sizeof(want_crc));
    const std::size_t payload_off = off + kFrameHeaderSize;
    if (len > bytes.size() - payload_off) break;  // torn payload
    if (frame_crc(type, len, bytes.data() + payload_off) != want_crc)
      break;  // bit flip (or a length that happened to fit)
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(type);
    rec.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(payload_off),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(payload_off + len));
    scan.records.push_back(std::move(rec));
    off = payload_off + len;
  }
  scan.valid_bytes = off;
  scan.torn_tail = off < bytes.size();
  scan.dropped_bytes = bytes.size() - off;
  return scan;
}

Bytes encode_traj_frame(const TrajFrame& frame) {
  ByteWriter w;
  w.pod(static_cast<std::int64_t>(frame.step));
  w.array(frame.pos);
  w.array(frame.vel);
  return w.take();
}

TrajFrame decode_traj_frame(const Bytes& payload) {
  ByteReader r(payload);
  TrajFrame frame;
  frame.step = r.pod<std::int64_t>();
  frame.pos = r.array<Vec3>();
  frame.vel = r.array<Vec3>();
  return frame;
}

WalWriter::WalWriter(const std::string& path,
                     std::uint64_t fsync_interval_bytes)
    : path_(path), fsync_interval_(fsync_interval_bytes) {
  // Recover-then-append: an existing file is truncated to its valid
  // record prefix so corruption never survives a reopen.
  std::uint64_t resume_at = 0;
  if (::access(path.c_str(), F_OK) == 0) {
    const WalScan scan = scan_wal(path);
    recovered_records_ = scan.records.size();
    recovered_torn_tail_ = scan.torn_tail;
    resume_at = scan.valid_bytes;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  SCMD_REQUIRE(fd_ >= 0, "cannot open WAL " + path + ": " +
                             std::strerror(errno));
  if (resume_at > 0) {
    SCMD_REQUIRE(::ftruncate(fd_, static_cast<off_t>(resume_at)) == 0,
                 "cannot truncate torn WAL tail in " + path + ": " +
                     std::strerror(errno));
    SCMD_REQUIRE(::lseek(fd_, 0, SEEK_END) >= 0,
                 "cannot seek WAL " + path);
    if (recovered_torn_tail_) {
      // Make the truncation durable before appending over the old tail.
      SCMD_REQUIRE(::fsync(fd_) == 0,
                   "fsync failed for " + path + ": " + std::strerror(errno));
    }
  } else {
    SCMD_REQUIRE(::ftruncate(fd_, 0) == 0,
                 "cannot reset WAL " + path + ": " + std::strerror(errno));
    std::uint64_t magic = kWalMagic;
    std::uint32_t version = kWalVersion;
    write_all(fd_, &magic, sizeof(magic), path_);
    write_all(fd_, &version, sizeof(version), path_);
    SCMD_REQUIRE(::fsync(fd_) == 0,
                 "fsync failed for " + path + ": " + std::strerror(errno));
  }
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

void WalWriter::append(WalRecordType type, const Bytes& payload) {
  SCMD_REQUIRE(payload.size() <= 0xFFFFFFFFu, "WAL record too large");
  const auto t = static_cast<std::uint32_t>(type);
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = frame_crc(t, len, payload.data());
  ByteWriter w;
  w.pod(t);
  w.pod(len);
  w.pod(crc);
  w.append(payload.data(), payload.size());
  const Bytes& frame = w.bytes();
  write_all(fd_, frame.data(), frame.size(), path_);
  bytes_written_ += frame.size();
  records_written_ += 1;
  unsynced_ += frame.size();
  if (unsynced_ > fsync_interval_) sync();
}

void WalWriter::append(WalRecordType type, const std::string& text) {
  // Copy through iterators: an empty Bytes has a null data(), and
  // memcpy into null is undefined even for zero bytes.
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  append(type, Bytes(p, p + text.size()));
}

void WalWriter::sync() {
  if (unsynced_ == 0) return;
  SCMD_REQUIRE(::fsync(fd_) == 0,
               "fsync failed for " + path_ + ": " + std::strerror(errno));
  unsynced_ = 0;
}

void WalMetricsSink::write_step(long long step,
                                const obs::MetricsRegistry& reg) {
  // Reuse the JSONL serialization so WAL metric records and the metrics
  // file carry byte-identical lines (minus the trailing newline).
  std::ostringstream os;
  obs::JsonlSink json(os);
  json.write_step(step, reg);
  std::string line = os.str();
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  wal_.append(WalRecordType::kMetrics, line);
}

}  // namespace scmd::ckpt
