/**
 * @file
 * Shared helpers for the workload implementations: typed device
 * arrays for kernels, the process-wide fixture cache, transfer padding
 * to hit Table 5 volumes exactly, and the calibrated kernel-cost
 * helper.
 *
 * Device arrays: a kernel declares each array it touches as input,
 * output or in-out (arrayIn/arrayOut/arrayInOut) and runs one body
 * over std::span<T>s through DeviceArrays::run(). Where it can, the
 * span is a view of VRAM, so the kernel works on device memory in
 * place. Otherwise it is a copy: an input that is not contiguous in
 * VRAM or not aligned for T is loaded with loadArray(); a whole
 * launch takes the copy path (load in declaration order, run, store
 * the written arrays in declaration order) when any array has an
 * unmapped page, a written array cannot be viewed, or two arrays
 * overlap in VRAM and one of them is written. An output starts as
 * value-initialized elements on either path. The contract is that
 * for every argument tuple the VRAM bytes after the launch and the
 * returned Status equal the copy path's, which a
 * GpuMemAccessor::perPage() accessor forces. A kernel computes its
 * array counts (and any address it derives from its arguments) with
 * checkedSize(), so a count that wraps past 2^64 fails the launch
 * instead of passing the size check small.
 *
 * Fixtures: a workload's input, its upload Bytes and its expected
 * output depend only on a fixed seed and the functional size, so each
 * is built once per process — a function-local static for single-size
 * apps, a FixtureCache where the size varies — and shared read-only by
 * every session and recording thread. Each session still uploads the
 * fixture through its own runtime and checks its own memcpyDtoH
 * result against the expected values.
 *
 * Kernel-time calibration: the paper does not publish per-kernel GPU
 * times, so each app's total kernel time at the nominal problem size
 * is a calibration constant fitted so that the Figure 7 overhead
 * shape reproduces (see EXPERIMENTS.md); the cost model scales that
 * constant with the problem measure and adds the launch overhead of
 * the launches a scaled-down functional run does not perform.
 */

#ifndef HIX_WORKLOADS_RODINIA_UTIL_H_
#define HIX_WORKLOADS_RODINIA_UTIL_H_

#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/byte_utils.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/units.h"
#include "workloads/workload.h"

namespace hix::workloads
{

/** Read @p count elements of T from device memory straight into a
 *  vector; fails like the access itself on an unmapped page. */
template <typename T>
Result<std::vector<T>>
loadArray(const gpu::GpuMemAccessor &mem, Addr va, std::size_t count)
{
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out(count);
    HIX_RETURN_IF_ERROR(mem.read(
        va, reinterpret_cast<std::uint8_t *>(out.data()),
        count * sizeof(T)));
    return out;
}

/** Write @p data to device memory at @p va. */
template <typename T>
Status
storeArray(const gpu::GpuMemAccessor &mem, Addr va,
           const std::vector<T> &data)
{
    static_assert(std::is_trivially_copyable_v<T>);
    return mem.write(va,
                     reinterpret_cast<const std::uint8_t *>(data.data()),
                     data.size() * sizeof(T));
}

/**
 * The product of @p factors plus @p addend: a kernel's array count or
 * an address it derives from its arguments. InvalidArgument when the
 * value wraps past 2^64.
 */
inline Result<std::uint64_t>
checkedSize(std::initializer_list<std::uint64_t> factors,
            std::uint64_t addend = 0)
{
    std::uint64_t value = 1;
    for (const std::uint64_t f : factors) {
        if (__builtin_mul_overflow(value, f, &value))
            return errInvalidArgument("kernel array size wraps past 2^64");
    }
    if (__builtin_add_overflow(value, addend, &value))
        return errInvalidArgument("kernel array size wraps past 2^64");
    return value;
}

/** @p a + @p b with two's-complement wrap, as a GPU's integer add. */
inline std::int32_t
wrappingAdd(std::int32_t a, std::int32_t b)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                     static_cast<std::uint32_t>(b));
}

/** How a kernel uses one device array. */
enum class Access
{
    In,     //!< read only
    Out,    //!< written; starts as value-initialized elements
    InOut,  //!< read and updated in place
};

/** One device array of a launch: @p count elements of T at @p va. */
template <typename T, Access A>
struct DeviceArray
{
    static_assert(std::is_trivially_copyable_v<T>);
    using Type = T;
    static constexpr Access access = A;

    Addr va;
    std::size_t count;
};

template <typename T>
DeviceArray<T, Access::In>
arrayIn(Addr va, std::size_t count)
{
    return {va, count};
}

template <typename T>
DeviceArray<T, Access::Out>
arrayOut(Addr va, std::size_t count)
{
    return {va, count};
}

template <typename T>
DeviceArray<T, Access::InOut>
arrayInOut(Addr va, std::size_t count)
{
    return {va, count};
}

namespace detail
{

/** A declared array bound to one launch: a VRAM view or a copy. */
template <typename Decl>
class BoundArray
{
  public:
    using T = typename Decl::Type;
    static constexpr bool Written = Decl::access != Access::In;
    using Elem = std::conditional_t<Written, T, const T>;

    explicit BoundArray(Decl decl) : decl_(decl) {}

    Status
    checkSize(const gpu::GpuMemAccessor &mem) const
    {
        if (decl_.count > mem.vramSize() / sizeof(T))
            return errInvalidArgument("device array larger than VRAM");
        return Status::ok();
    }

    /**
     * Try to view the array in VRAM. False when the whole launch must
     * take the copy path: an unmapped page, or a written array that
     * is not contiguous or not aligned for T. An input that only
     * fails those two checks stays a copy on its own.
     */
    bool
    lend(const gpu::GpuMemAccessor &mem)
    {
        auto v = mem.view(decl_.va, decl_.count * sizeof(T));
        if (!v.isOk())
            return !Written &&
                   v.status().code() == StatusCode::FailedPrecondition;
        if (reinterpret_cast<std::uintptr_t>(v->data()) % alignof(T) != 0)
            return !Written;
        view_ = *v;
        lent_ = true;
        return true;
    }

    void drop() { lent_ = false; }

    /** The VRAM bytes this array views (empty for a copy), and
     * whether the launch writes them. */
    std::pair<std::span<const std::uint8_t>, bool>
    footprint() const
    {
        return {lent_ ? view_ : std::span<std::uint8_t>(), Written};
    }

    /** Fill a copy: load an input, value-initialize an output. */
    Status
    load(const gpu::GpuMemAccessor &mem)
    {
        if (lent_)
            return Status::ok();
        if constexpr (Decl::access == Access::Out) {
            copy_.assign(decl_.count, T{});
        } else {
            HIX_ASSIGN_OR_RETURN(copy_,
                                 loadArray<T>(mem, decl_.va, decl_.count));
        }
        return Status::ok();
    }

    /** Value-initialize a viewed output (all-zero bytes). */
    void
    clearOutput()
    {
        if (lent_ && Decl::access == Access::Out && !view_.empty())
            std::memset(view_.data(), 0, view_.size());
    }

    std::span<Elem>
    span()
    {
        if (!lent_)
            return copy_;
        return {reinterpret_cast<Elem *>(view_.data()), decl_.count};
    }

    /** Write a written copy back. */
    Status
    store(const gpu::GpuMemAccessor &mem) const
    {
        if (!Written || lent_)
            return Status::ok();
        return storeArray(mem, decl_.va, copy_);
    }

  private:
    Decl decl_;
    std::span<std::uint8_t> view_;
    bool lent_ = false;
    std::vector<T> copy_;
};

}  // namespace detail

/**
 * The device arrays of one kernel launch (see the file comment):
 *
 *     return DeviceArrays(mem, arrayIn<float>(args[0], n),
 *                         arrayOut<float>(args[1], n))
 *         .run([&](std::span<const float> in, std::span<float> out) {
 *             ...
 *         });
 *
 * The body receives one span per array, in declaration order. Kernels
 * check their scalar arguments before this; a body that also checks
 * the data it reads returns a Status instead of void. The copy path
 * stores the written arrays whether or not the body fails, so a
 * failing launch leaves the same VRAM on both paths.
 */
template <typename... Decls>
class DeviceArrays
{
  public:
    DeviceArrays(const gpu::GpuMemAccessor &mem, Decls... decls)
        : mem_(mem), bound_(detail::BoundArray<Decls>(decls)...)
    {}

    template <typename Body>
    Status
    run(Body &&body)
    {
        return std::apply(
            [&](auto &...array) -> Status {
                Status st = Status::ok();
                ((st.isOk() ? void(st = array.checkSize(mem_)) : void()),
                 ...);
                HIX_RETURN_IF_ERROR(st);
                if (!(array.lend(mem_) && ...) ||
                    writtenViewsOverlap({array.footprint()...}))
                    (array.drop(), ...);
                ((st.isOk() ? void(st = array.load(mem_)) : void()), ...);
                HIX_RETURN_IF_ERROR(st);
                (array.clearOutput(), ...);
                Status ran = Status::ok();
                if constexpr (std::is_void_v<decltype(body(array.span()...))>)
                    body(array.span()...);
                else
                    ran = body(array.span()...);
                ((st.isOk() ? void(st = array.store(mem_)) : void()),
                 ...);
                return ran.isOk() ? st : ran;
            },
            bound_);
    }

  private:
    using Footprint = std::pair<std::span<const std::uint8_t>, bool>;

    static bool
    writtenViewsOverlap(
        const std::array<Footprint, sizeof...(Decls)> &arrays)
    {
        for (std::size_t i = 0; i < arrays.size(); ++i) {
            for (std::size_t j = i + 1; j < arrays.size(); ++j) {
                if ((arrays[i].second || arrays[j].second) &&
                    spansOverlap(arrays[i].first, arrays[j].first))
                    return true;
            }
        }
        return false;
    }

    const gpu::GpuMemAccessor &mem_;
    std::tuple<detail::BoundArray<Decls>...> bound_;
};

template <typename T>
Bytes
vecBytes(const std::vector<T> &v)
{
    Bytes out(v.size() * sizeof(T));
    std::memcpy(out.data(), v.data(), out.size());
    return out;
}

template <typename T>
std::vector<T>
bytesVec(const Bytes &b)
{
    std::vector<T> out(b.size() / sizeof(T));
    std::memcpy(out.data(), b.data(), b.size());
    return out;
}

/** One expected element of a device result, by index. */
template <typename T>
struct Expected
{
    std::uint64_t index;
    T value;
};

/**
 * Process-wide build-once cache of immutable fixtures keyed by size.
 * get() builds the value for a new key under the lock, so concurrent
 * first users of a key wait for one build; the returned reference
 * stays valid for the life of the process (std::map never moves its
 * nodes) and must only be read.
 */
template <typename K, typename V>
class FixtureCache
{
  public:
    template <typename Build>
    const V &
    get(const K &key, Build &&build)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = values_.find(key);
        if (it == values_.end())
            it = values_.emplace(key, build()).first;
        return it->second;
    }

  private:
    std::mutex mu_;
    std::map<K, V> values_;
};

/**
 * Calibrated kernel cost: @p total_ns is the app's summed kernel time
 * at the paper's problem size, @p measure_ratio scales it for other
 * sizes, and the cost is split over @p launches_func functional
 * launches, each additionally charged for the
 * (launches_nominal - launches_func) real launches the functional run
 * folds away (at the GTX 580's ~8 us launch overhead).
 */
inline Tick
calibratedKernelCost(double total_ns, double measure_ratio,
                     std::uint64_t launches_func,
                     std::uint64_t launches_nominal)
{
    if (launches_func == 0)
        return 0;
    const double per_launch = total_ns * measure_ratio /
                              static_cast<double>(launches_func);
    const double extra_launches =
        launches_nominal > launches_func
            ? static_cast<double>(launches_nominal - launches_func) /
                  static_cast<double>(launches_func)
            : 0.0;
    return static_cast<Tick>(per_launch + extra_launches * 8000.0) + 1;
}

/**
 * Base class: handles exact Table 5 transfer accounting. Apps
 * transfer their functional arrays; when the sum falls short of
 * nominal/scale, a workspace buffer is transferred to make the timed
 * volume match the paper exactly.
 */
class RodiniaApp : public Workload
{
  public:
    RodiniaApp(std::string name, std::uint64_t scale,
               TransferSpec nominal)
        : Workload(std::move(name)), scale_(scale), nominal_(nominal)
    {}

    std::uint64_t timingScale() const override { return scale_; }
    TransferSpec nominalTransfers() const override { return nominal_; }

  protected:
    /** Target functional HtoD bytes (nominal / scale). */
    std::uint64_t
    functionalHtoD() const
    {
        return nominal_.htodBytes / scale_;
    }

    std::uint64_t
    functionalDtoH() const
    {
        return nominal_.dtohBytes / scale_;
    }

    /**
     * Transfer a zero workspace of (target - done) bytes so the
     * timed HtoD volume hits Table 5; no-op when already exceeded.
     */
    Status
    padHtoD(GpuApi &api, std::uint64_t done)
    {
        const std::uint64_t target = functionalHtoD();
        if (done + 4096 >= target)
            return Status::ok();
        const std::uint64_t pad = target - done;
        static FixtureCache<std::uint64_t, Bytes> zeros;
        const Bytes &zero = zeros.get(pad, [pad] { return Bytes(pad); });
        HIX_ASSIGN_OR_RETURN(Addr va, api.memAlloc(pad));
        HIX_RETURN_IF_ERROR(api.memcpyHtoD(va, zero));
        return api.memFree(va);
    }

    /** Same for DtoH: read back a scratch workspace. */
    Status
    padDtoH(GpuApi &api, std::uint64_t done)
    {
        const std::uint64_t target = functionalDtoH();
        if (done + 4096 >= target)
            return Status::ok();
        const std::uint64_t pad = target - done;
        HIX_ASSIGN_OR_RETURN(Addr va, api.memAlloc(pad));
        auto data = api.memcpyDtoH(va, pad);
        if (!data.isOk())
            return data.status();
        return api.memFree(va);
    }

  private:
    std::uint64_t scale_;
    TransferSpec nominal_;
};

}  // namespace hix::workloads

#endif  // HIX_WORKLOADS_RODINIA_UTIL_H_
