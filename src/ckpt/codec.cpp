#include "ckpt/codec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "ckpt/crc32.hpp"
#include "support/error.hpp"

namespace scmd::ckpt {

std::string section_tag(std::uint32_t id) {
  std::string tag(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xFF);
    tag[static_cast<std::size_t>(i)] =
        (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return tag;
}

void ByteWriter::append(const void* data, std::size_t size) {
  if (size == 0) return;  // `data` may be an empty container's null data()
  const auto* p = static_cast<const std::byte*>(data);
  out_.insert(out_.end(), p, p + size);
}

void ByteReader::require(std::uint64_t size) const {
  SCMD_REQUIRE(size <= remaining(),
               "truncated payload: need " + std::to_string(size) +
                   " bytes, have " + std::to_string(remaining()));
}

void ByteReader::copy(void* dst, std::size_t size) {
  require(size);
  std::memcpy(dst, bytes_.data() + off_, size);
  off_ += size;
}

Bytes ByteReader::take(std::size_t size) {
  require(size);
  Bytes out(bytes_.begin() + static_cast<std::ptrdiff_t>(off_),
            bytes_.begin() + static_cast<std::ptrdiff_t>(off_ + size));
  off_ += size;
  return out;
}

void SectionFile::add(std::uint32_t id, Bytes payload) {
  sections_.push_back({id, std::move(payload)});
}

const Bytes* SectionFile::find(std::uint32_t id) const {
  for (const Section& s : sections_) {
    if (s.id == id) return &s.payload;
  }
  return nullptr;
}

const Bytes& SectionFile::require(std::uint32_t id) const {
  const Bytes* payload = find(id);
  SCMD_REQUIRE(payload != nullptr,
               "checkpoint is missing required section " + section_tag(id));
  return *payload;
}

Bytes SectionFile::encode() const {
  ByteWriter w;
  w.pod(kContainerMagic);
  w.pod(kContainerVersion);
  w.pod(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    w.pod(s.id);
    w.pod(static_cast<std::uint64_t>(s.payload.size()));
    w.pod(crc32(s.payload.data(), s.payload.size()));
    w.append(s.payload.data(), s.payload.size());
  }
  return w.take();
}

SectionFile SectionFile::decode(const Bytes& bytes) {
  ByteReader r(bytes);
  SCMD_REQUIRE(r.pod<std::uint64_t>() == kContainerMagic,
               "not an SC-MD v2 checkpoint container (bad magic)");
  const auto version = r.pod<std::uint32_t>();
  SCMD_REQUIRE(version == kContainerVersion,
               "unsupported checkpoint container version " +
                   std::to_string(version));
  const auto count = r.pod<std::uint32_t>();
  SectionFile file;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto id = r.pod<std::uint32_t>();
    const auto len = r.pod<std::uint64_t>();
    const auto want_crc = r.pod<std::uint32_t>();
    SCMD_REQUIRE(len <= r.remaining(),
                 "truncated section " + section_tag(id) + ": declares " +
                     std::to_string(len) + " bytes, " +
                     std::to_string(r.remaining()) + " remain");
    Bytes payload = r.take(static_cast<std::size_t>(len));
    const std::uint32_t got_crc = crc32(payload.data(), payload.size());
    SCMD_REQUIRE(got_crc == want_crc,
                 "CRC mismatch in section " + section_tag(id) +
                     " (stored " + std::to_string(want_crc) + ", computed " +
                     std::to_string(got_crc) + ")");
    file.add(id, std::move(payload));
  }
  SCMD_REQUIRE(r.done(), std::to_string(r.remaining()) +
                             " trailing bytes after the last section");
  return file;
}

namespace {

void write_all(int fd, const Bytes& bytes, const std::string& path) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      SCMD_REQUIRE(false, "write failed for " + path + ": " +
                              std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// fsync the directory containing `path` so the rename itself is durable.
void sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {  // best effort: some filesystems refuse dir fsync
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

void atomic_write_file(const std::string& path, const Bytes& bytes) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  SCMD_REQUIRE(fd >= 0,
               "cannot open " + tmp + " for writing: " + std::strerror(errno));
  try {
    write_all(fd, bytes, tmp);
    SCMD_REQUIRE(::fsync(fd) == 0,
                 "fsync failed for " + tmp + ": " + std::strerror(errno));
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    SCMD_REQUIRE(false, "rename " + tmp + " -> " + path + " failed: " +
                            std::strerror(err));
  }
  sync_parent_dir(path);
}

Bytes read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  SCMD_REQUIRE(fd >= 0,
               "cannot open " + path + " for reading: " + std::strerror(errno));
  Bytes out;
  std::byte buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      SCMD_REQUIRE(false,
                   "read failed for " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

}  // namespace scmd::ckpt
