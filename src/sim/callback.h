// Small-buffer-optimized move-only callables for the event arena and the
// messaging hot path. The simulator stores one Callback per scheduled
// event, and the rpc layer stores one BasicFunc per pending completion, so
// the common case — a lambda capturing a few pointers and ids — must
// construct, move and destroy without touching the allocator. Callables up
// to the inline capacity live inside the object; larger ones fall back to
// the heap and bump a shared global counter so the benches can report
// allocs/event.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace eden::sim {

namespace detail {
// One shared spill counter for every SBO callable type; bench_micro reads
// deltas of it to attribute heap traffic to callback storage.
inline std::atomic<std::uint64_t> callback_heap_allocs{0};
}  // namespace detail

class Callback {
 public:
  // 48 bytes fits a std::function<void()> (32 bytes on libstdc++), every
  // protocol request-leg capture except frame offload (net* + handle +
  // node* + 32-byte FrameRequest = 56), and together with the ops pointer
  // and the simulator's per-slot metadata a whole arena slot still lands
  // on exactly one cache line (48 + 8 + 4 + 4 = 64). Larger captures
  // heap-allocate (the seed's std::function already did, above its 16-byte
  // SBO) and bump the alloc counter.
  static constexpr std::size_t kInlineCapacity = 48;

  Callback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  // Construct the callable directly in this object's storage (replacing
  // any current one). The simulator uses this to build callbacks in their
  // arena slot with no temporary and no relocate call.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
      detail::callback_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Callback(Callback&& other) noexcept : ops_(other.ops_) {
    if (ops_) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  // Invoke the callable and leave this object empty, in one virtual
  // dispatch. The object is marked empty *before* the call, so re-entrant
  // observers (sweeps, pending() checks) see it as already consumed. The
  // callable itself stays valid for the duration of the call.
  void invoke_and_reset() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Number of callbacks (of any SBO callable type) that spilled to the
  // heap since process start (or the last reset). bench_micro divides a
  // delta of this by events scheduled to report allocs/event.
  [[nodiscard]] static std::uint64_t heap_allocations() noexcept {
    return detail::callback_heap_allocs.load(std::memory_order_relaxed);
  }
  static void reset_heap_allocations() noexcept {
    detail::callback_heap_allocs.store(0, std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char* self);
    // Invoke the callable, then destroy it.
    void (*invoke_destroy)(unsigned char* self);
    // Move the callable from `from` into `to` and destroy the source.
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](unsigned char* self) { (*reinterpret_cast<Fn*>(self))(); },
      [](unsigned char* self) {
        Fn* fn = reinterpret_cast<Fn*>(self);
        (*fn)();
        fn->~Fn();
      },
      [](unsigned char* from, unsigned char* to) noexcept {
        ::new (static_cast<void*>(to)) Fn(std::move(*reinterpret_cast<Fn*>(from)));
        reinterpret_cast<Fn*>(from)->~Fn();
      },
      [](unsigned char* self) noexcept { reinterpret_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](unsigned char* self) { (**reinterpret_cast<Fn**>(self))(); },
      [](unsigned char* self) {
        Fn* fn = *reinterpret_cast<Fn**>(self);
        (*fn)();
        delete fn;
      },
      [](unsigned char* from, unsigned char* to) noexcept {
        *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
      },
      [](unsigned char* self) noexcept { delete *reinterpret_cast<Fn**>(self); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_{nullptr};

};

// Move-only SBO callable taking arguments: the std::function replacement
// on the messaging hot path (NodeApi/ManagerApi completion callbacks, the
// frame executor's completions, rpc response handlers). Unlike
// std::function it accepts move-only captures — which is what lets one
// completion callback carry another one inline instead of through a
// shared_ptr — and unlike Callback it is parameterized both on the
// argument list and on the inline capacity, so a wrapper layer that needs
// to nest a BasicFunc inside its own capture can size itself one step
// bigger (see node::Executor::Completion).
//
// Capacity 56 (the Func<> alias) is calibrated to the protocol callbacks:
// the largest client-side request-leg lambdas (probe_candidates,
// attempt_join: this + vector + ids + timestamp) are 56 bytes, and since
// the ops pointer pads the object to 64 bytes either way, 56 is free —
// BasicFunc<48> and BasicFunc<56> are the same size. Invocation does not
// consume the target; the exactly-once contract is the caller's.
template <std::size_t Capacity, typename... Args>
class BasicFunc {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;

  BasicFunc() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicFunc> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  BasicFunc(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicFunc> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
      detail::callback_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  BasicFunc(BasicFunc&& other) noexcept : ops_(other.ops_) {
    if (ops_) ops_->relocate(other.storage_, storage_);
    other.ops_ = nullptr;
  }

  BasicFunc& operator=(BasicFunc&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  BasicFunc(const BasicFunc&) = delete;
  BasicFunc& operator=(const BasicFunc&) = delete;

  ~BasicFunc() { reset(); }

  void operator()(Args... args) {
    ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char* self, Args&&... args);
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](unsigned char* self, Args&&... args) {
        (*reinterpret_cast<Fn*>(self))(std::forward<Args>(args)...);
      },
      [](unsigned char* from, unsigned char* to) noexcept {
        ::new (static_cast<void*>(to)) Fn(std::move(*reinterpret_cast<Fn*>(from)));
        reinterpret_cast<Fn*>(from)->~Fn();
      },
      [](unsigned char* self) noexcept { reinterpret_cast<Fn*>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](unsigned char* self, Args&&... args) {
        (**reinterpret_cast<Fn**>(self))(std::forward<Args>(args)...);
      },
      [](unsigned char* from, unsigned char* to) noexcept {
        *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
      },
      [](unsigned char* self) noexcept { delete *reinterpret_cast<Fn**>(self); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_{nullptr};
};

// The default capacity used across the protocol APIs.
template <typename... Args>
using Func = BasicFunc<56, Args...>;

}  // namespace eden::sim
