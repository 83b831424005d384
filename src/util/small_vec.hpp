// Inline small-vector for trivially copyable elements.
//
// The first N elements live inside the object; only when a sequence
// outgrows N does it spill to a single heap allocation. The IPD engine
// uses this for per-ingress counters: the paper observes that nearly all
// IPs and most ranges see one or two ingress links, so N = 2 keeps the
// overwhelming share of the data inline with its owner — one fewer
// pointer chase per leaf on the stage-2 walk, and zero heap churn for
// the common case.
//
// Restricted to trivially copyable T so growth and insertion are memcpy
// and no element destructors are owed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

namespace ipd::util {

/// Aggregate stand-in for std::pair as a SmallVec element: std::pair is
/// never trivially copyable (user-provided assignment), an aggregate of
/// trivially copyable members is. Structured bindings and .first/.second
/// work the same.
template <class A, class B>
struct PodPair {
  A first;
  B second;
};

template <class T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(N >= 1);

 public:
  using value_type = T;

  // User-provided (not defaulted) so a const SmallVec default-constructs;
  // the inline buffer is deliberately left uninitialized.
  SmallVec() noexcept {}

  SmallVec(const SmallVec& other) { assign(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      release();
      assign(other);
    }
    return *this;
  }

  SmallVec(SmallVec&& other) noexcept { steal(std::move(other)); }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(std::move(other));
    }
    return *this;
  }

  ~SmallVec() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool is_inline() const noexcept { return capacity_ == N; }

  T* data() noexcept {
    return is_inline() ? reinterpret_cast<T*>(inline_) : heap_;
  }
  const T* data() const noexcept {
    return is_inline() ? reinterpret_cast<const T*>(inline_) : heap_;
  }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  void push_back(const T& value) {
    reserve_for(size_ + 1);
    data()[size_++] = value;
  }

  template <class... Args>
  void emplace_back(Args&&... args) {
    push_back(T{std::forward<Args>(args)...});
  }

  /// Insert before `pos` (a pointer into this vector), shifting the tail.
  void insert(const T* pos, const T& value) {
    const std::size_t at = static_cast<std::size_t>(pos - data());
    assert(at <= size_);
    reserve_for(size_ + 1);
    T* base = data();
    std::memmove(base + at + 1, base + at, (size_ - at) * sizeof(T));
    base[at] = value;
    ++size_;
  }

  /// Remove the element at `pos` (a pointer into this vector), shifting
  /// the tail down. Capacity is unchanged.
  void erase(const T* pos) noexcept {
    const std::size_t at = static_cast<std::size_t>(pos - data());
    assert(at < size_);
    T* base = data();
    std::memmove(base + at, base + at + 1, (size_ - at - 1) * sizeof(T));
    --size_;
  }

  /// Shrink to `n` elements (n <= size()).
  void truncate(std::size_t n) noexcept {
    assert(n <= size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Drop all elements and release any heap spill.
  void clear() noexcept { release(); }

  /// Heap bytes owned beyond the object itself (0 while inline).
  std::size_t heap_bytes() const noexcept {
    return is_inline() ? 0 : capacity_ * sizeof(T);
  }

  /// The capacity an empty vector reaches after `n` single-element
  /// appends: N inline, then doubling.
  static constexpr std::size_t grown_capacity(std::size_t n) noexcept {
    std::size_t cap = N;
    while (cap < n) cap *= 2;
    return cap;
  }

  /// Grow capacity to at least `cap` without changing contents. Snapshot
  /// restore uses this to reproduce a donor vector's exact capacity (and
  /// therefore heap_bytes()) before replaying its elements.
  void reserve(std::size_t cap) { reserve_for(cap); }

 private:
  void reserve_for(std::size_t needed) {
    if (needed <= capacity_) return;
    std::size_t cap = capacity_ * 2;
    if (cap < needed) cap = needed;
    T* heap = static_cast<T*>(::operator new(cap * sizeof(T)));
    std::memcpy(heap, data(), size_ * sizeof(T));
    if (!is_inline()) ::operator delete(heap_);
    heap_ = heap;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  void assign(const SmallVec& other) {
    size_ = 0;
    capacity_ = N;
    reserve_for(other.size_);
    std::memcpy(data(), other.data(), other.size_ * sizeof(T));
    size_ = other.size_;
  }

  void steal(SmallVec&& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.is_inline()) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    } else {
      heap_ = other.heap_;
    }
    other.size_ = 0;
    other.capacity_ = N;
  }

  void release() noexcept {
    if (!is_inline()) ::operator delete(heap_);
    size_ = 0;
    capacity_ = N;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  // Raw byte storage rather than T[N] so T needs no (trivial) default
  // constructor; trivially copyable elements are created by copy into the
  // buffer, never default-constructed in place.
  union {
    alignas(T) std::byte inline_[N * sizeof(T)];
    T* heap_;
  };
};

}  // namespace ipd::util
