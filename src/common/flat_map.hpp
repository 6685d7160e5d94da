// An open-addressed hash map for integer and pointer keys: the per-op
// tables of the request/reply path (a TSC client's cache entries, the TCP
// transport's site tables, a server's write dedup).
//
// All slots live in one power-of-two array with the values inline, so a
// table allocates once per doubling instead of once per entry and frees in
// O(1). A key's home slot is the top bits of a Fibonacci multiply, which
// spreads consecutive ids (client sites, object ids) evenly; a lookup
// probes linearly from there. Erase shifts the rest of the probe chain back
// instead of leaving a tombstone, so probe chains depend only on the keys
// present and the load stays at most 3/4.
//
// Any insert may grow the array and any erase may move other entries, so
// both invalidate every pointer and iterator into the map. A value that must
// keep its address while the map changes (a message handler that may
// register a site while it runs) goes behind a std::unique_ptr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <tuple>
#include <type_traits>
#include <utility>

namespace timedc {

template <typename K, typename V>
class FlatMap {
  static_assert(std::is_integral_v<K> || std::is_pointer_v<K>,
                "FlatMap keys are integers or pointers");

  struct Slot {
    Slot() {}
    ~Slot() {}
    union {
      std::pair<const K, V> kv;
    };
    bool used = false;
  };

 public:
  using value_type = std::pair<const K, V>;

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using reference = std::conditional_t<Const, const value_type&, value_type&>;
    reference operator*() const { return slots_[i_].kv; }
    auto* operator->() const { return &slots_[i_].kv; }
    Iter& operator++() {
      ++i_;
      skip_empty();
      return *this;
    }
    bool operator==(const Iter& other) const { return i_ == other.i_; }

   private:
    friend class FlatMap;
    Iter(SlotPtr slots, std::size_t i, std::size_t end)
        : slots_(slots), i_(i), end_(end) {
      skip_empty();
    }
    void skip_empty() {
      while (i_ < end_ && !slots_[i_].used) ++i_;
    }
    SlotPtr slots_;
    std::size_t i_;
    std::size_t end_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  FlatMap(const FlatMap&) = delete;
  FlatMap& operator=(const FlatMap&) = delete;
  ~FlatMap() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots in the array (0 before the first insert).
  std::size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }

  iterator begin() { return iterator(slots_, 0, capacity()); }
  iterator end() { return iterator(slots_, capacity(), capacity()); }
  const_iterator begin() const { return const_iterator(slots_, 0, capacity()); }
  const_iterator end() const {
    return const_iterator(slots_, capacity(), capacity());
  }

  /// The value stored under `key`, or null.
  V* find(K key) {
    const std::size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].kv.second;
  }
  const V* find(K key) const {
    const std::size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].kv.second;
  }
  bool contains(K key) const { return index_of(key) != kNone; }

  /// The value under `key`, built from `args` when the key is new; the flag
  /// says whether it was inserted. One probe when the key is present.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(K key, Args&&... args) {
    std::size_t i = kNone;
    if (slots_ != nullptr) {
      for (i = home(key);; i = (i + 1) & mask_) {
        if (!slots_[i].used) break;
        if (slots_[i].kv.first == key) return {&slots_[i].kv.second, false};
      }
    }
    if (4 * (size_ + 1) > 3 * capacity()) {
      grow();
      for (i = home(key); slots_[i].used; i = (i + 1) & mask_) {
      }
    }
    Slot& s = slots_[i];
    ::new (&s.kv)
        value_type(std::piecewise_construct, std::forward_as_tuple(key),
                   std::forward_as_tuple(std::forward<Args>(args)...));
    s.used = true;
    ++size_;
    return {&s.kv.second, true};
  }

  V& operator[](K key) { return *try_emplace(key).first; }

  /// Removes `key`; false when it was absent.
  bool erase(K key) {
    const std::size_t i = index_of(key);
    if (i == kNone) return false;
    erase_slot(i);
    return true;
  }

  /// Removes every entry for which pred(key, value) is true, visiting each
  /// entry exactly once; pred may also modify the values it keeps. Returns
  /// the number removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    // Sweep the ring of slots starting just past an empty one. The shift
    // that follows an erase stops at the first empty slot, so it never
    // carries an entry across the sweep's start: every entry it moves comes
    // from a slot not yet visited and lands on one not yet passed.
    std::size_t start = 0;
    while (slots_[start].used) ++start;
    std::size_t erased = 0;
    for (std::size_t step = 1; step <= mask_;) {
      const std::size_t i = (start + step) & mask_;
      Slot& s = slots_[i];
      if (s.used && pred(std::as_const(s.kv.first), s.kv.second)) {
        erase_slot(i);
        ++erased;
        continue;  // slot i may now hold an entry shifted back into it
      }
      ++step;
    }
    return erased;
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr unsigned kMinLog2 = 4;  // first array: 16 slots

  std::size_t home(K key) const {
    std::uint64_t bits = 0;
    if constexpr (std::is_pointer_v<K>) {
      bits = reinterpret_cast<std::uintptr_t>(key);
    } else {
      bits = static_cast<std::uint64_t>(key);
    }
    return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  std::size_t index_of(K key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!slots_[i].used) return kNone;
      if (slots_[i].kv.first == key) return i;
    }
  }

  /// Empties slot `hole`, then walks its probe chain and moves back every
  /// entry whose home is not cyclically inside (hole, where it sits].
  void erase_slot(std::size_t hole) {
    slots_[hole].kv.~value_type();
    slots_[hole].used = false;
    --size_;
    for (std::size_t i = (hole + 1) & mask_; slots_[i].used;
         i = (i + 1) & mask_) {
      const std::size_t from_home = (i - home(slots_[i].kv.first)) & mask_;
      if (from_home < ((i - hole) & mask_)) continue;
      ::new (&slots_[hole].kv) value_type(std::move(slots_[i].kv));
      slots_[hole].used = true;
      slots_[i].kv.~value_type();
      slots_[i].used = false;
      hole = i;
    }
  }

  void grow() {
    Slot* old = slots_;
    const std::size_t old_capacity = capacity();
    const unsigned log2 = old == nullptr ? kMinLog2 : 65 - shift_;
    slots_ = new Slot[std::size_t{1} << log2];
    mask_ = (std::size_t{1} << log2) - 1;
    shift_ = 64 - log2;
    for (std::size_t j = 0; j < old_capacity; ++j) {
      if (!old[j].used) continue;
      std::size_t i = home(old[j].kv.first);
      while (slots_[i].used) i = (i + 1) & mask_;
      ::new (&slots_[i].kv) value_type(std::move(old[j].kv));
      slots_[i].used = true;
      old[j].kv.~value_type();
    }
    delete[] old;
  }

  void release() {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_[i].used) slots_[i].kv.~value_type();
    }
    delete[] slots_;
  }

  Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace timedc
