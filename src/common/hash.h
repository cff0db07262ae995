// 64-bit content hash for fingerprinting in-memory byte buffers.
//
// The xxHash64 construction with seed 0: four independent 64-bit
// accumulator lanes each take one 8-byte word of every 32-byte stripe
// with a multiply-rotate step, the lanes merge, the tail bytes fold in
// (8, then 4, then 1 byte at a time) and a full-avalanche finalizer
// mixes the result. The lanes carry no dependency on one another, so the
// hash runs at word rate rather than at one multiply per byte. Words are
// read in host byte order; on little-endian hosts the value equals the
// published XXH64 (HashTest pins its known answers).
#ifndef CFCM_COMMON_HASH_H_
#define CFCM_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace cfcm {

/// \brief Streaming form of ContentHash: Update over consecutive pieces
/// hashes their concatenation, however the bytes are split.
class ContentHasher {
 public:
  ContentHasher();

  /// Appends `bytes` bytes at `data` to the hashed stream.
  void Update(const void* data, std::size_t bytes);

  /// Hash of every byte appended so far (the hasher stays usable).
  uint64_t Digest() const;

 private:
  uint64_t lanes_[4];
  unsigned char stripe_[32];  ///< bytes of the current partial stripe
  std::size_t buffered_ = 0;  ///< valid bytes in stripe_
  uint64_t total_ = 0;        ///< bytes appended so far
};

/// One-shot hash of `bytes` bytes at `data`.
uint64_t ContentHash(const void* data, std::size_t bytes);

}  // namespace cfcm

#endif  // CFCM_COMMON_HASH_H_
