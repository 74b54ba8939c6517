// A vector with inline storage for its first N elements.
//
// OpenFlow action lists are almost always one to three entries (set-field +
// output), yet they ride inside every FlowMod, FlowEntry and PacketOut the
// control plane copies around. Giving them inline capacity makes those
// copies allocation-free on the flow-setup fast path; lists that outgrow N
// spill to the heap and behave like a plain vector from then on.
//
// Only the slice of the std::vector interface the codebase uses is
// implemented; iterators are raw pointers and are invalidated by any growth,
// exactly as with std::vector.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <new>
#include <utility>

namespace livesec {

template <typename T, std::size_t N>
class SmallVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) {
    reserve(init.size());
    for (const T& v : init) push_back(v);
  }

  SmallVector(const SmallVector& other) {
    reserve(other.size_);
    for (const T& v : other) push_back(v);
  }

  SmallVector(SmallVector&& other) noexcept { steal(std::move(other)); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (const T& v : other) push_back(v);
    }
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(std::move(other));
    }
    return *this;
  }

  SmallVector& operator=(std::initializer_list<T> init) {
    clear();
    reserve(init.size());
    for (const T& v : init) push_back(v);
    return *this;
  }

  ~SmallVector() { destroy(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T* cbegin() const { return data_; }
  const T* cend() const { return data_ + size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow(wanted);
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_back() { data_[--size_].~T(); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(size_ + 1);
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  /// Inserts before `pos`, shifting the tail up one slot.
  iterator insert(iterator pos, const T& v) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    emplace_back(v);  // may reallocate; also handles the append case
    std::rotate(data_ + at, data_ + size_ - 1, data_ + size_);
    return data_ + at;
  }

  /// Removes the element at `pos`, shifting the tail down one slot.
  iterator erase(iterator pos) {
    std::move(pos + 1, end(), pos);
    pop_back();
    return pos;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  T* inline_slots() { return reinterpret_cast<T*>(inline_storage_); }

  void grow(std::size_t wanted) {
    const std::size_t new_capacity = std::max(wanted, capacity_ * 2);
    T* heap = static_cast<T*>(::operator new(new_capacity * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(heap + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (data_ != inline_slots()) ::operator delete(data_);
    data_ = heap;
    capacity_ = new_capacity;
  }

  /// Takes other's contents; assumes our storage is already destroyed/fresh.
  void steal(SmallVector&& other) noexcept {
    if (other.data_ != other.inline_slots()) {
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_slots();
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      data_ = inline_slots();
      capacity_ = N;
      size_ = other.size_;
      for (std::size_t i = 0; i < size_; ++i) {
        ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      other.size_ = 0;
    }
  }

  void destroy() {
    clear();
    if (data_ != inline_slots()) ::operator delete(data_);
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_slots();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace livesec
