// The one small-buffer-optimized move-only callable of the simulator and
// the messaging hot path. The simulator stores one Callback per scheduled
// event, the rpc layer one completion per pending call, so the common case
// — a lambda capturing a few pointers and ids — must construct, move and
// destroy without touching the allocator. Callables up to the inline
// capacity live inside the object; larger ones fall back to the heap and
// bump a shared global counter so the benches can report allocs/event.
//
// Capacities. The storage is pointer-aligned and the ops pointer follows
// it, so sizeof(BasicFunc<N, ...>) == N + 8 for every N that is a multiple
// of 8. One rule follows from that: a callable that carries another one
// inline needs at least sizeof(that callable) of capacity. The rpc slot
// holds a net::Done<R> (a Func<std::optional<R>>, capacity 56), so
// SimNetwork's kDoneCapacity == sizeof(net::Done<...>) == 64; the
// executor's completion holds a Done plus the node, client and frame id,
// hence 96. Each user states its capacity next to its alias, and the sim
// stubs static_assert that their completions fit the rpc slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace eden::sim {

namespace detail {
// One shared spill counter for every SBO callable type; the benches read
// deltas of it to attribute heap traffic to callback storage.
inline std::atomic<std::uint64_t> callback_heap_allocs{0};
}  // namespace detail

// Move-only callable taking `Args...`. Unlike std::function it accepts
// move-only captures — which is what lets one completion carry another
// inline instead of through a shared_ptr. Invocation through operator()
// does not consume the target; invoke_and_reset() does, in one dispatch.
template <std::size_t Capacity, typename... Args>
class BasicFunc {
 public:
  BasicFunc() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicFunc> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  BasicFunc(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  // Construct the callable directly in this object's storage (replacing
  // any current one). The simulator uses this to build callbacks in their
  // arena slot with no temporary and no relocate call.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicFunc> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>()) {
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

  // Invoke the callable and leave this object empty, in one indirect call.
  // The object is marked empty *before* the call, so re-entrant observers
  // (sweeps, pending() checks, a timeout racing a response) see it as
  // already consumed. The callable itself stays valid for the call.
  void invoke_and_reset(Args... args) {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(storage_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  // Destroy the callable without invoking it.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Whether a callable of type Fn lives inline (true) or spills to the
  // heap. Call sites on allocation-free paths static_assert on it.
  template <typename Fn>
  [[nodiscard]] static constexpr bool stores_inline() {
    return sizeof(Fn) <= Capacity && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  // Number of callables (of any capacity) that spilled to the heap since
  // process start. The benches divide a delta of this by events scheduled
  // to report allocs/event.
  [[nodiscard]] static std::uint64_t heap_allocations() noexcept {
    return detail::callback_heap_allocs.load(std::memory_order_relaxed);
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char* self, Args&&... args);
    // Invoke the callable, then destroy it.
    void (*invoke_destroy)(unsigned char* self, Args&&... args);
    // Move the callable from `from` into `to` and destroy the source.
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](unsigned char* self, Args&&... args) {
        (*reinterpret_cast<Fn*>(self))(std::forward<Args>(args)...);
      },
      [](unsigned char* self, Args&&... args) {
        Fn* fn = reinterpret_cast<Fn*>(self);
        (*fn)(std::forward<Args>(args)...);
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
      [](unsigned char* self, Args&&... args) {
        (**reinterpret_cast<Fn**>(self))(std::forward<Args>(args)...);
      },
      [](unsigned char* self, Args&&... args) {
        Fn* fn = *reinterpret_cast<Fn**>(self);
        (*fn)(std::forward<Args>(args)...);
        delete fn;
      },
      [](unsigned char* from, unsigned char* to) noexcept {
        *reinterpret_cast<Fn**>(to) = *reinterpret_cast<Fn**>(from);
      },
      [](unsigned char* self) noexcept { delete *reinterpret_cast<Fn**>(self); },
  };

  alignas(void*) unsigned char storage_[Capacity];
  const Ops* ops_{nullptr};
};

// The event arena's callable. 48 bytes fits a std::function<void()> (32
// on libstdc++) and the request leg of every per-frame and probe rpc (the
// discovery leg, which carries three strings, spills); with the ops
// pointer and the simulator's generation and free-list words an arena
// slot is exactly one cache line (48 + 8 + 4 + 4 = 64).
using Callback = BasicFunc<48>;

// The protocol completion (net::Done, NodeApi/ManagerApi callbacks): 56
// bytes fits the largest client-side captures (this + shared_ptr + ids +
// timestamp), and the object is then 64 bytes — the rpc slot's capacity.
template <typename... Args>
using Func = BasicFunc<56, Args...>;

static_assert(sizeof(Callback) == 56 && sizeof(Func<>) == 64,
              "BasicFunc<N> must be N plus the ops pointer");

}  // namespace eden::sim
