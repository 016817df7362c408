#include "common/hash.h"

#include <cstring>

namespace dfi {

// Resolved once at load time to the widest clone the CPU supports: with
// AVX-512DQ the fmix64 chain (two 64-bit multiplies) vectorizes 8 keys
// wide, which matters because the batched shuffle partitioner funnels every
// 8-byte-key block through here. memcpy loads keep unaligned input legal.
// TSan builds leave the clones out: the loader runs the ifunc resolver,
// which TSan instruments, before the TSan runtime is initialized.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("arch=x86-64-v4", "default")))
#endif
void HashKeys8(const void* keys, size_t n, uint64_t* out) {
  const auto* p = static_cast<const unsigned char*>(keys);
  for (size_t i = 0; i < n; ++i) {
    uint64_t k;
    std::memcpy(&k, p + i * 8, 8);
    out[i] = HashU64(k);
  }
}

uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace dfi
