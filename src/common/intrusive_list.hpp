// Intrusive doubly-linked list. The linkage lives inside the element (an
// IntrusiveHook member), so linking and unlinking never allocate and a node
// can be removed in O(1) given only its pointer — the queue discipline the
// scheduler hot paths (candidate queue, per-stream pending requests, disk
// command queues) are built on. The list does not own its nodes; whoever
// allocates them (usually a Slab) frees them after unlinking.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>

namespace sst {

/// Embedded linkage. A hook belongs to at most one list at a time; `linked`
/// distinguishes "in some list" from free, making remove() safely
/// idempotent at the call site.
template <typename T>
struct IntrusiveHook {
  T* prev = nullptr;
  T* next = nullptr;
  bool linked = false;
};

template <typename T, IntrusiveHook<T> T::* Hook>
class IntrusiveList {
 public:
  IntrusiveList() = default;
  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;
  /// Moving transfers the whole chain (nodes link to each other, never to
  /// the list object, so only head/tail move); the source ends up empty.
  IntrusiveList(IntrusiveList&& other) noexcept
      : head_(other.head_), tail_(other.tail_), size_(other.size_) {
    other.head_ = nullptr;
    other.tail_ = nullptr;
    other.size_ = 0;
  }
  IntrusiveList& operator=(IntrusiveList&& other) noexcept {
    if (this != &other) {
      assert(empty() && "move-assigning over a non-empty intrusive list");
      head_ = other.head_;
      tail_ = other.tail_;
      size_ = other.size_;
      other.head_ = nullptr;
      other.tail_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T* front() const { return head_; }
  [[nodiscard]] T* back() const { return tail_; }

  [[nodiscard]] static bool is_linked(const T& node) { return (node.*Hook).linked; }
  [[nodiscard]] static T* next_of(const T& node) { return (node.*Hook).next; }
  [[nodiscard]] static T* prev_of(const T& node) { return (node.*Hook).prev; }

  void push_back(T& node) {
    IntrusiveHook<T>& hook = link(node);
    hook.prev = tail_;
    hook.next = nullptr;
    if (tail_ != nullptr) {
      (tail_->*Hook).next = &node;
    } else {
      head_ = &node;
    }
    tail_ = &node;
  }

  void push_front(T& node) {
    IntrusiveHook<T>& hook = link(node);
    hook.prev = nullptr;
    hook.next = head_;
    if (head_ != nullptr) {
      (head_->*Hook).prev = &node;
    } else {
      tail_ = &node;
    }
    head_ = &node;
  }

  /// Insert `node` immediately before `pos` (which must be linked here).
  void insert_before(T& pos, T& node) {
    T* const before = (pos.*Hook).prev;
    if (before == nullptr) {
      push_front(node);
      return;
    }
    IntrusiveHook<T>& hook = link(node);
    hook.prev = before;
    hook.next = &pos;
    (before->*Hook).next = &node;
    (pos.*Hook).prev = &node;
  }

  /// Insert `node` immediately after `pos` (which must be linked here).
  void insert_after(T& pos, T& node) {
    T* const after = (pos.*Hook).next;
    if (after == nullptr) {
      push_back(node);
      return;
    }
    IntrusiveHook<T>& hook = link(node);
    hook.prev = &pos;
    hook.next = after;
    (pos.*Hook).next = &node;
    (after->*Hook).prev = &node;
  }

  /// Unlink `node`. The node must currently be linked in *this* list.
  void remove(T& node) {
    IntrusiveHook<T>& hook = node.*Hook;
    assert(hook.linked && "removing a node that is not linked");
    if (hook.prev != nullptr) {
      (hook.prev->*Hook).next = hook.next;
    } else {
      head_ = hook.next;
    }
    if (hook.next != nullptr) {
      (hook.next->*Hook).prev = hook.prev;
    } else {
      tail_ = hook.prev;
    }
    hook.prev = nullptr;
    hook.next = nullptr;
    hook.linked = false;
    assert(size_ > 0);
    --size_;
  }

  [[nodiscard]] T* pop_front() {
    T* const node = head_;
    if (node != nullptr) remove(*node);
    return node;
  }

  /// Unlink every node (nodes themselves are untouched otherwise).
  void clear() {
    while (head_ != nullptr) remove(*head_);
  }

  /// Forward iteration; removing the *current* node invalidates the
  /// iterator — capture next_of() first when erasing while walking.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = T*;
    using reference = T&;

    iterator() = default;
    explicit iterator(T* node) : node_(node) {}
    reference operator*() const { return *node_; }
    pointer operator->() const { return node_; }
    iterator& operator++() {
      node_ = (node_->*Hook).next;
      return *this;
    }
    iterator operator++(int) {
      iterator out = *this;
      ++*this;
      return out;
    }
    bool operator==(const iterator& other) const { return node_ == other.node_; }
    bool operator!=(const iterator& other) const { return node_ != other.node_; }

   private:
    T* node_ = nullptr;
  };

  [[nodiscard]] iterator begin() const { return iterator(head_); }
  [[nodiscard]] iterator end() const { return iterator(nullptr); }

 private:
  IntrusiveHook<T>& link(T& node) {
    IntrusiveHook<T>& hook = node.*Hook;
    assert(!hook.linked && "node already linked");
    hook.linked = true;
    ++size_;
    return hook;
  }

  T* head_ = nullptr;
  T* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace sst
