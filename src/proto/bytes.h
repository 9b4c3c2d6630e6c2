// proto::Bytes: an immutable, reference-counted run of payload bytes.
//
// A 4 KB block lives in the server's file, crosses the wire and sits in a
// client's cache (§4.2); on the host all of those are the same memory.
// Copies of a Bytes share one buffer and nothing can write through one, so
// a block can be held by a server inode, an in-flight envelope, its
// retransmit copy and a client cache entry at once without any holder
// observing the others. An edit makes a new buffer (copy-on-write:
// Overwritten, Resized), so the old bytes stay what every other holder saw.
//
// Every buffer a Bytes allocates counts itself, the way proto::Envelope
// counts its copies, so a guard test can pin that a whole-block write-back
// or fetch allocates none between the client cache and the server file.
#ifndef SRC_PROTO_BYTES_H_
#define SRC_PROTO_BYTES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

namespace proto {

class Bytes {
 public:
  Bytes() = default;
  // Adopts the vector's buffer without copying its bytes. Implicit, so a
  // std::vector<uint8_t> rvalue passes wherever a payload is expected.
  Bytes(std::vector<uint8_t>&& bytes) : buffer_(Adopt(std::move(bytes))) {}
  // Copies [data, data + size).
  Bytes(const uint8_t* data, size_t size) {
    if (size > 0) {
      ++buffers_allocated_;
      buffer_ = std::make_shared<const std::vector<uint8_t>>(data, data + size);
    }
  }

  const uint8_t* data() const { return buffer_ ? buffer_->data() : nullptr; }
  size_t size() const { return buffer_ ? buffer_->size() : 0; }
  bool empty() const { return size() == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return buffer_ ? buffer_->data() + buffer_->size() : nullptr; }

  // These bytes with [at, at + n) overwritten by src[src_pos, src_pos + n),
  // zero-extended to `at + n` if shorter. When the result is exactly `src`
  // it is `src`, sharing its buffer; otherwise it is a new buffer
  // (copy-on-write), and this one is unchanged.
  Bytes Overwritten(size_t at, const Bytes& src, size_t src_pos, size_t n) const {
    if (at == 0 && n >= size()) {
      // Nothing of the old bytes survives.
      return src_pos == 0 && n == src.size() ? src : Bytes(src.data() + src_pos, n);
    }
    std::vector<uint8_t> edited(begin(), end());
    if (edited.size() < at + n) {
      edited.resize(at + n);
    }
    if (n > 0) {
      std::memcpy(edited.data() + at, src.data() + src_pos, n);
    }
    return Bytes(std::move(edited));
  }

  // A new buffer holding the first `n` bytes, zero-extended if shorter.
  Bytes Resized(size_t n) const {
    std::vector<uint8_t> resized(begin(), begin() + std::min(n, size()));
    resized.resize(n);
    return Bytes(std::move(resized));
  }

  // A private, mutable copy (the application boundary).
  std::vector<uint8_t> ToVector() const { return std::vector<uint8_t>(begin(), end()); }

  // Content equality; copies that share a buffer are trivially equal.
  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.size() == b.size() &&
           (a.buffer_ == b.buffer_ || a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

  static uint64_t buffers_allocated() { return buffers_allocated_; }
  static void reset_buffers_allocated() { buffers_allocated_ = 0; }

 private:
  static std::shared_ptr<const std::vector<uint8_t>> Adopt(std::vector<uint8_t>&& bytes) {
    if (bytes.empty()) {
      return nullptr;
    }
    ++buffers_allocated_;
    return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  }

  std::shared_ptr<const std::vector<uint8_t>> buffer_;
  static inline uint64_t buffers_allocated_ = 0;
};

}  // namespace proto

#endif  // SRC_PROTO_BYTES_H_
