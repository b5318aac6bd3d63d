// The socket demux index: (local, remote) endpoint pair -> socket.
//
// Every TCP segment a host receives is one lookup here, so the table is
// built for that: open addressing with linear probing over a power-of-two
// array that is at most half full. Each endpoint packs into one 48-bit word
// (ip << 16 | port); the home bucket is the top bits of a multiplicative
// mix of the two words, so a lookup costs two multiplies and a shift, never
// a division. Erase shifts the rest of the probe run back instead of leaving
// tombstones. The table maps, it does not own: the mapped sockets belong to
// whoever holds them (DESIGN §6, "Ownership").
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/address.h"

namespace sc::transport {

template <typename T>
class ConnTable {
 public:
  struct Key {
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    bool operator==(const Key&) const = default;
  };

  static Key keyOf(net::Endpoint local, net::Endpoint remote) noexcept {
    return Key{pack(local), pack(remote)};
  }

  T* find(const Key& key) const noexcept {
    return size_ == 0 ? nullptr : slots_[probe(key)].value;
  }

  // Maps `key` to `value` (non-null), replacing any earlier value.
  void assign(const Key& key, T* value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t i = probe(key);
    if (slots_[i].value == nullptr) ++size_;
    slots_[i] = Slot{key, value};
  }

  // Erases `key`'s entry; with `only`, just when it maps to `only`. Returns
  // whether an entry went.
  bool erase(const Key& key, const T* only = nullptr) noexcept {
    if (size_ == 0) return false;
    std::size_t i = probe(key);
    if (slots_[i].value == nullptr ||
        (only != nullptr && slots_[i].value != only))
      return false;
    // Backward shift: an entry further along the run moves into the hole
    // when the hole lies between its home and where it sits.
    for (std::size_t j = (i + 1) & mask(); slots_[j].value != nullptr;
         j = (j + 1) & mask()) {
      const std::size_t home = homeOf(slots_[j].key);
      if (((j - home) & mask()) >= ((j - i) & mask())) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  // Calls fn(value) for every entry, in slot order (a function of the keys
  // and their insertion history only).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (const Slot& s : slots_)
      if (s.value != nullptr) fn(s.value);
  }

  void clear() noexcept {
    slots_.clear();
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  // The multiplicative mix; a key's home bucket is its top log2(capacity)
  // bits, so keys whose mixes share the top k bits collide at every
  // capacity up to 2^k.
  static std::uint64_t mix(const Key& key) noexcept {
    return (key.local * 0x9E3779B97F4A7C15ULL ^ key.remote) *
           0xBF58476D1CE4E5B9ULL;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  struct Slot {
    Key key;
    T* value = nullptr;
  };

  static std::uint64_t pack(net::Endpoint e) noexcept {
    return std::uint64_t{e.ip.v} << 16 | e.port;
  }
  std::size_t mask() const noexcept { return slots_.size() - 1; }
  std::size_t homeOf(const Key& key) const noexcept {
    return static_cast<std::size_t>(mix(key) >> shift_);
  }

  // The slot holding `key`, or else the empty slot that ends its probe run.
  std::size_t probe(const Key& key) const noexcept {
    std::size_t i = homeOf(key);
    while (slots_[i].value != nullptr && !(slots_[i].key == key))
      i = (i + 1) & mask();
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinCapacity, 2 * slots_.size())));
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Slot& s : old)
      if (s.value != nullptr) assign(s.key, s.value);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace sc::transport
