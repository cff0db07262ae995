#include "common/hash.h"

#include <algorithm>
#include <cstring>

namespace cfcm {

namespace {

constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return Rotl(acc + word * kP2, 31) * kP1;
}

inline uint64_t MergeLane(uint64_t hash, uint64_t lane) {
  return (hash ^ Round(0, lane)) * kP1 + kP4;
}

// Runs every whole 32-byte stripe of [p, p + bytes) through the lanes;
// returns the number of bytes consumed.
std::size_t Stripes(uint64_t lanes[4], const unsigned char* p,
                    std::size_t bytes) {
  uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
  const std::size_t whole = bytes - bytes % 32;
  for (std::size_t i = 0; i < whole; i += 32) {
    v0 = Round(v0, Read64(p + i));
    v1 = Round(v1, Read64(p + i + 8));
    v2 = Round(v2, Read64(p + i + 16));
    v3 = Round(v3, Read64(p + i + 24));
  }
  lanes[0] = v0, lanes[1] = v1, lanes[2] = v2, lanes[3] = v3;
  return whole;
}

}  // namespace

ContentHasher::ContentHasher() : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void ContentHasher::Update(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += bytes;
  if (buffered_ > 0) {
    const std::size_t take = std::min(bytes, sizeof(stripe_) - buffered_);
    std::memcpy(stripe_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    bytes -= take;
    if (buffered_ < sizeof(stripe_)) return;
    Stripes(lanes_, stripe_, sizeof(stripe_));
    buffered_ = 0;
  }
  const std::size_t done = Stripes(lanes_, p, bytes);
  buffered_ = bytes - done;
  if (buffered_ > 0) std::memcpy(stripe_, p + done, buffered_);
}

uint64_t ContentHasher::Digest() const {
  uint64_t h;
  if (total_ >= 32) {
    h = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
        Rotl(lanes_[3], 18);
    for (uint64_t lane : lanes_) h = MergeLane(h, lane);
  } else {
    h = kP5;  // no whole stripe: the lanes never ran
  }
  h += total_;
  // Tail fold: the partial stripe, 8 bytes, then 4, then 1 at a time.
  const unsigned char* p = stripe_;
  std::size_t left = buffered_;
  for (; left >= 8; p += 8, left -= 8) {
    h = Rotl(h ^ Round(0, Read64(p)), 27) * kP1 + kP4;
  }
  if (left >= 4) {
    h = Rotl(h ^ (Read32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) h = Rotl(h ^ (*p * kP5), 11) * kP1;
  // Finalizer: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

uint64_t ContentHash(const void* data, std::size_t bytes) {
  ContentHasher hasher;
  hasher.Update(data, bytes);
  return hasher.Digest();
}

}  // namespace cfcm
