#include "testing/fuzz_targets.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "crypto/auth_channel.h"
#include "crypto/hmac.h"
#include "gpu/gpu_device.h"
#include "hix/protocol.h"
#include "mem/iommu.h"
#include "mem/mmu.h"
#include "mem/page_table.h"
#include "mem/phys_bus.h"
#include "mem/phys_mem.h"
#include "oracles/mem_oracles.h"
#include "pcie/root_complex.h"
#include "workloads/rodinia_util.h"

namespace hix::harness
{

namespace
{

std::string
hexWord(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ----- protocol --------------------------------------------------------

Status
runProtocol(const std::vector<std::uint64_t> &ops)
{
    std::size_t i = 0;
    auto next = [&]() -> std::uint64_t {
        return i < ops.size() ? ops[i++] : 0;
    };

    // Build a structured request from the op stream and round-trip.
    core::Request req;
    req.type = static_cast<core::ReqType>(1 + next() % 9);
    const std::size_t nargs = next() % 6;
    for (std::size_t a = 0; a < nargs; ++a)
        req.args.push_back(next());
    const std::size_t blob_len = next() % 24;
    for (std::size_t b = 0; b < blob_len; ++b)
        req.blob.push_back(static_cast<std::uint8_t>(next()));

    Bytes wire = core::encodeRequest(req);
    auto decoded = core::decodeRequest(wire);
    if (!decoded.isOk())
        return errInternal("request roundtrip decode failed: " +
                           decoded.status().toString());
    if (decoded->type != req.type || decoded->args != req.args ||
        decoded->blob != req.blob)
        return errInternal("request roundtrip mismatch");

    // Same for a response.
    core::Response resp;
    resp.code = static_cast<std::uint32_t>(next() % 16);
    const std::size_t nvals = next() % 5;
    for (std::size_t v = 0; v < nvals; ++v)
        resp.vals.push_back(next());
    Bytes rwire = core::encodeResponse(resp);
    auto rdec = core::decodeResponse(rwire);
    if (!rdec.isOk())
        return errInternal("response roundtrip decode failed: " +
                           rdec.status().toString());
    if (rdec->code != resp.code || rdec->vals != resp.vals)
        return errInternal("response roundtrip mismatch");

    // Mutation: decode must stay total (return a status, never
    // crash or over-read), and anything it accepts must re-encode
    // canonically.
    Bytes mutated = wire;
    mutated[next() % mutated.size()] ^=
        static_cast<std::uint8_t>(next() | 1);
    auto mdec = core::decodeRequest(mutated);
    if (mdec.isOk()) {
        auto canon = core::decodeRequest(core::encodeRequest(*mdec));
        if (!canon.isOk() || canon->type != mdec->type ||
            canon->args != mdec->args || canon->blob != mdec->blob)
            return errInternal("accepted mutation is not canonical");
    }

    // Truncation and garbage extension must be rejected or handled.
    Bytes truncated(
        wire.begin(),
        wire.begin() +
            static_cast<std::ptrdiff_t>(next() % wire.size()));
    if (core::decodeRequest(truncated).isOk() &&
        truncated.size() != wire.size())
        return errInternal("truncated request accepted");
    Bytes extended = wire;
    extended.push_back(static_cast<std::uint8_t>(next()));
    if (core::decodeRequest(extended).isOk())
        return errInternal("over-long request accepted");
    return Status::ok();
}

// ----- auth channel ----------------------------------------------------

Status
runAuthChannel(const std::vector<std::uint64_t> &ops)
{
    const crypto::AesKey key =
        crypto::deriveAesKey(Bytes(32, 0x5A), "fuzz-channel");
    crypto::AuthChannel sender(key, 1, 2);
    crypto::AuthChannel receiver(key, 2, 1);

    struct InFlight
    {
        crypto::SealedMessage msg;
        Bytes plaintext;
    };
    std::deque<InFlight> inflight;
    std::uint64_t sent = 0;

    for (std::uint64_t op : ops) {
        switch (op % 5) {
          case 0: {  // seal a fresh message
            const std::size_t len = (op >> 8) % 64;
            Bytes pt(len);
            for (std::size_t j = 0; j < len; ++j)
                pt[j] = static_cast<std::uint8_t>(op >> (j % 56));
            crypto::SealedMessage msg = sender.seal(pt);
            ++sent;
            if (msg.sequence != sent)
                return errInternal("send sequence not monotonic");
            inflight.push_back(InFlight{std::move(msg), std::move(pt)});
            break;
          }
          case 1: {  // in-order delivery must succeed exactly once
            if (inflight.empty())
                break;
            InFlight m = std::move(inflight.front());
            inflight.pop_front();
            auto pt = receiver.open(m.msg);
            if (!pt.isOk())
                return errInternal("in-order open rejected: " +
                                   pt.status().toString());
            if (*pt != m.plaintext)
                return errInternal("opened plaintext mismatch");
            if (receiver.lastAcceptedSequence() != m.msg.sequence)
                return errInternal("receiver sequence not advanced");
            break;
          }
          case 2: {  // tampered copy must be rejected, original kept
            if (inflight.empty())
                break;
            crypto::SealedMessage copy = inflight.front().msg;
            const std::size_t bit = (op >> 16) % (copy.body.size() * 8);
            copy.body[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
            auto pt = receiver.open(copy);
            if (pt.isOk())
                return errInternal("tampered message accepted");
            if (pt.status().code() != StatusCode::IntegrityFailure)
                return errInternal(
                    "tamper misclassified: " + pt.status().toString());
            break;
          }
          case 3: {  // wrong-stream copy must be rejected
            if (inflight.empty())
                break;
            crypto::SealedMessage copy = inflight.front().msg;
            copy.stream ^= 0x10;
            auto pt = receiver.open(copy);
            if (pt.isOk())
                return errInternal("wrong-stream message accepted");
            if (pt.status().code() != StatusCode::InvalidArgument)
                return errInternal("wrong stream misclassified: " +
                                   pt.status().toString());
            break;
          }
          case 4: {  // skip-ahead delivery, then replay it
            if (inflight.empty())
                break;
            InFlight m = std::move(inflight.back());
            inflight.clear();  // older messages become stale
            auto pt = receiver.open(m.msg);
            if (!pt.isOk())
                return errInternal("skip-ahead open rejected: " +
                                   pt.status().toString());
            if (*pt != m.plaintext)
                return errInternal("skip-ahead plaintext mismatch");
            auto replay = receiver.open(m.msg);
            if (replay.isOk())
                return errInternal("replayed message accepted");
            if (replay.status().code() != StatusCode::ReplayDetected)
                return errInternal("replay misclassified: " +
                                   replay.status().toString());
            break;
          }
        }
    }
    return Status::ok();
}

// ----- mapping state ---------------------------------------------------

constexpr std::uint64_t FuzzRamSize = 1 * 1024 * 1024;

/** Small address pool + occasional adversarial extremes. */
Addr
pickAddr(std::uint64_t op, unsigned shift)
{
    const std::uint64_t sel = (op >> shift) & 0xff;
    if ((sel & 0x0f) == 0x0f)  // extreme: near the top of the space
        return (~std::uint64_t(0) << 12) + (sel >> 4);
    if ((sel & 0x0f) == 0x0e)  // unaligned
        return (sel % 16) * mem::PageSize + 1 + (sel >> 4);
    return (sel % 16) * mem::PageSize;
}

Status
runMappingState(const std::vector<std::uint64_t> &ops)
{
    mem::PageTable pt;
    std::unordered_map<Addr, mem::Pte> pt_shadow;
    mem::Iommu iommu;
    iommu.setEnabled(true);
    std::unordered_map<Addr, Addr> io_shadow;
    mem::PhysMem ram("fuzz_ram", FuzzRamSize);
    std::unordered_map<std::uint64_t, std::uint8_t> ram_shadow;

    for (std::uint64_t op : ops) {
        const Addr va = pickAddr(op, 8);
        const Addr pa = pickAddr(op, 16);
        const std::uint8_t perms =
            static_cast<std::uint8_t>(1 + (op >> 24) % 7);
        switch (op % 8) {
          case 0: {
            Status st = pt.map(va, pa, perms);
            const bool aligned =
                mem::pageAligned(va) && mem::pageAligned(pa);
            const bool fresh = pt_shadow.find(va) == pt_shadow.end();
            if (st.isOk() != (aligned && fresh))
                return errInternal("pt.map verdict mismatch at va " +
                                   hexWord(va));
            if (st.isOk())
                pt_shadow[va] = mem::Pte{pa, perms};
            break;
          }
          case 1: {
            Status st = pt.unmap(va);
            const bool present =
                pt_shadow.erase(mem::pageBase(va)) > 0;
            if (st.isOk() != present)
                return errInternal("pt.unmap verdict mismatch at " +
                                   hexWord(va));
            break;
          }
          case 2: {
            auto pte = pt.lookup(va);
            auto it = pt_shadow.find(mem::pageBase(va));
            if (pte.isOk() != (it != pt_shadow.end()))
                return errInternal("pt.lookup presence mismatch at " +
                                   hexWord(va));
            if (pte.isOk() && (pte->paddr != it->second.paddr ||
                               pte->perms != it->second.perms))
                return errInternal("pt.lookup PTE mismatch at " +
                                   hexWord(va));
            break;
          }
          case 3: {
            pt.overwrite(va, pa, perms);
            pt_shadow[mem::pageBase(va)] =
                mem::Pte{mem::pageBase(pa), perms};
            break;
          }
          case 4: {
            Status st = iommu.map(va, pa);
            const bool aligned =
                mem::pageAligned(va) && mem::pageAligned(pa);
            const bool fresh = io_shadow.find(va) == io_shadow.end();
            if (st.isOk() != (aligned && fresh))
                return errInternal("iommu.map verdict mismatch at " +
                                   hexWord(va));
            if (st.isOk())
                io_shadow[va] = pa;
            break;
          }
          case 5: {
            iommu.overwrite(va, pa);
            io_shadow[mem::pageBase(va)] = mem::pageBase(pa);
            break;
          }
          case 6: {
            auto xlat = iommu.translate(va);
            auto it = io_shadow.find(mem::pageBase(va));
            if (xlat.isOk() != (it != io_shadow.end()))
                return errInternal(
                    "iommu.translate presence mismatch at " +
                    hexWord(va));
            if (xlat.isOk() &&
                *xlat != it->second + mem::pageOffset(va))
                return errInternal(
                    "iommu.translate address mismatch at " +
                    hexWord(va));
            break;
          }
          case 7: {
            // PhysMem bounds property: an access is legal iff it
            // fits entirely inside the memory — including when
            // offset + len would wrap 64-bit arithmetic.
            std::uint64_t offset = (op >> 8) % (2 * FuzzRamSize);
            if (((op >> 4) & 0xf) == 0xf)
                offset = ~std::uint64_t(0) - ((op >> 32) & 0xff);
            const std::size_t len = 1 + ((op >> 3) % 8);
            const bool legal = len <= FuzzRamSize &&
                               offset <= FuzzRamSize - len;
            std::uint8_t buf[8];
            if (op & 0x100000000ull) {
                for (std::size_t j = 0; j < len; ++j)
                    buf[j] = static_cast<std::uint8_t>(op >> j);
                Status st = ram.writeAt(offset, buf, len);
                if (st.isOk() != legal)
                    return errInternal(
                        "PhysMem write bounds verdict mismatch at "
                        "offset " +
                        hexWord(offset));
                if (st.isOk())
                    for (std::size_t j = 0; j < len; ++j)
                        ram_shadow[offset + j] = buf[j];
            } else {
                Status st = ram.readAt(offset, buf, len);
                if (st.isOk() != legal)
                    return errInternal(
                        "PhysMem read bounds verdict mismatch at "
                        "offset " +
                        hexWord(offset));
                if (st.isOk()) {
                    for (std::size_t j = 0; j < len; ++j) {
                        auto it = ram_shadow.find(offset + j);
                        const std::uint8_t want =
                            it == ram_shadow.end() ? 0 : it->second;
                        if (buf[j] != want)
                            return errInternal(
                                "PhysMem readback mismatch at "
                                "offset " +
                                hexWord(offset + j));
                    }
                }
            }
            break;
          }
        }
    }
    return Status::ok();
}

// ----- memory-system differential --------------------------------------

/**
 * One half of the mirrored pair, over an mem::Mmu or the
 * mem::ReferenceMmu oracle. Physical layout: RAM at [0, 1MiB) plus a
 * page-aligned island, so bulk runs can cross target boundaries at
 * page edges without ever straddling one mid-page (bus-level faults
 * would let the fast path legally run ahead on translate counting;
 * translate-level faults are the interesting differential surface
 * and stay exactly comparable).
 */
constexpr Addr HiBase = 4 * 1024 * 1024;

template <typename MmuT>
struct MemSystem
{
    MemSystem()
        : ram("diff_ram", FuzzRamSize),
          hi("diff_hi", 16 * mem::PageSize),
          mmu(&bus, 16)
    {
        (void)bus.attach(AddrRange(0, FuzzRamSize), &ram);
        (void)bus.attach(AddrRange(HiBase, 16 * mem::PageSize), &hi);
        mmu.setPageTableProvider([this](ProcessId pid) {
            return &tables[pid];
        });
    }

    /** The ranges this half attached, for the linear route. */
    std::vector<mem::PhysicalBus::Mapping>
    attached()
    {
        return {{AddrRange(0, FuzzRamSize), &ram},
                {AddrRange(HiBase, 16 * mem::PageSize), &hi}};
    }

    mem::PhysicalBus bus;
    mem::PhysMem ram;
    mem::PhysMem hi;
    MmuT mmu;
    std::unordered_map<ProcessId, mem::PageTable> tables;
};

/** Denies fills onto one physical page — identical on both halves. */
class DenyPpageValidator : public mem::TlbFillValidator
{
  public:
    explicit DenyPpageValidator(Addr deny) : deny_(deny) {}

    Status
    validateFill(const mem::ExecContext &, Addr, Addr ppage,
                 std::uint8_t) override
    {
        if (ppage == deny_)
            return errAccessFault("validator denied fill");
        return Status::ok();
    }

  private:
    Addr deny_;
};

Status
runMemorySystem(const std::vector<std::uint64_t> &ops)
{
    MemSystem<mem::Mmu> fast;
    MemSystem<mem::ReferenceMmu> ref;
    const std::vector<mem::PhysicalBus::Mapping> attached = fast.attached();
    // A RAM page pickPa() draws: RAM page 7 is never one, since every
    // selector that would give it picks the hi island.
    const Addr denied_ppage = 6 * mem::PageSize;
    DenyPpageValidator deny_fast(denied_ppage);
    DenyPpageValidator deny_ref(denied_ppage);
    fast.mmu.addValidator(&deny_fast);
    ref.mmu.addValidator(&deny_ref);

    auto checkCounters = [&](const char *where) -> Status {
        if (fast.mmu.tlbHits() != ref.mmu.tlbHits() ||
            fast.mmu.tlbMisses() != ref.mmu.tlbMisses())
            return errInternal(std::string("TLB hit/miss divergence ") +
                               where);
        if (fast.mmu.tlb().size() != ref.mmu.tlb().size())
            return errInternal(std::string("TLB size divergence ") +
                               where);
        return Status::ok();
    };

    // Virtual pages 0..31 at 0x400000; physical pages constrained to
    // the attached targets (RAM pages 0..255 or the hi island).
    auto pickVa = [](std::uint64_t op, unsigned shift) -> Addr {
        return 0x400000 + ((op >> shift) % 32) * mem::PageSize;
    };
    auto pickPa = [](std::uint64_t op, unsigned shift) -> Addr {
        const std::uint64_t sel = (op >> shift) & 0xff;
        if ((sel & 0x7) == 0x7)
            return HiBase + (sel % 16) * mem::PageSize;
        return (sel % 200) * mem::PageSize;
    };

    std::vector<std::uint8_t> buf_fast(3 * mem::PageSize + 64);
    std::vector<std::uint8_t> buf_ref(buf_fast.size());

    for (std::uint64_t op : ops) {
        const mem::ExecContext ctx{
            static_cast<ProcessId>(1 + (op >> 40) % 2),
            ((op >> 44) % 3 == 0) ? InvalidEnclaveId
                                  : EnclaveId(50 + (op >> 44) % 3)};
        const Addr va = pickVa(op, 8);
        const Addr pa = pickPa(op, 16);
        const std::uint8_t perms =
            static_cast<std::uint8_t>(1 + (op >> 24) % 7);
        switch (op % 8) {
          case 0: {
            Status a = fast.tables[ctx.pid].map(va, pa, perms);
            Status b = ref.tables[ctx.pid].map(va, pa, perms);
            if (a.code() != b.code())
                return errInternal("pt.map divergence at " + hexWord(va));
            break;
          }
          case 1: {
            Status a = fast.tables[ctx.pid].unmap(va);
            Status b = ref.tables[ctx.pid].unmap(va);
            if (a.code() != b.code())
                return errInternal("pt.unmap divergence at " +
                                   hexWord(va));
            break;
          }
          case 2: {
            // Raw PTE overwrite with NO flush: both TLBs must serve
            // the same stale translation until a shootdown.
            fast.tables[ctx.pid].overwrite(va, pa, perms);
            ref.tables[ctx.pid].overwrite(va, pa, perms);
            break;
          }
          case 3: {
            const auto access = (op >> 28) % 2 == 0
                                    ? mem::AccessType::Read
                                    : mem::AccessType::Write;
            auto a = fast.mmu.translate(ctx, va + (op >> 52) % 64,
                                        access);
            auto b = ref.mmu.translate(ctx, va + (op >> 52) % 64,
                                       access);
            if (a.isOk() != b.isOk())
                return errInternal("translate verdict divergence at " +
                                   hexWord(va));
            if (a.isOk() && *a != *b)
                return errInternal("translate address divergence at " +
                                   hexWord(va));
            if (!a.isOk() && a.status().code() != b.status().code())
                return errInternal("translate code divergence at " +
                                   hexWord(va));
            HIX_RETURN_IF_ERROR(checkCounters("after translate"));
            break;
          }
          case 4: {  // bulk read vs per-page reference loop
            const std::size_t len =
                1 + (op >> 32) % (3 * mem::PageSize);
            const Addr addr = va + (op >> 52) % 64;
            std::fill(buf_fast.begin(), buf_fast.end(), 0xAA);
            std::fill(buf_ref.begin(), buf_ref.end(), 0xAA);
            Status a = fast.mmu.read(ctx, addr, buf_fast.data(), len);
            Status b = ref.mmu.read(ctx, addr, buf_ref.data(), len);
            if (a.code() != b.code())
                return errInternal("bulk read code divergence at " +
                                   hexWord(addr));
            if (buf_fast != buf_ref)
                return errInternal("bulk read byte divergence at " +
                                   hexWord(addr));
            HIX_RETURN_IF_ERROR(checkCounters("after bulk read"));
            break;
          }
          case 5: {  // bulk write vs per-page reference loop
            const std::size_t len =
                1 + (op >> 32) % (3 * mem::PageSize);
            const Addr addr = va + (op >> 52) % 64;
            for (std::size_t j = 0; j < len; ++j)
                buf_fast[j] = static_cast<std::uint8_t>(op >> (j % 56));
            Status a = fast.mmu.write(ctx, addr, buf_fast.data(), len);
            Status b = ref.mmu.write(ctx, addr, buf_fast.data(), len);
            if (a.code() != b.code())
                return errInternal("bulk write code divergence at " +
                                   hexWord(addr));
            HIX_RETURN_IF_ERROR(checkCounters("after bulk write"));
            break;
          }
          case 6: {  // shootdowns, all three shapes
            switch ((op >> 36) % 3) {
              case 0:
                fast.mmu.flushTlbPage(ctx.pid, va);
                ref.mmu.flushTlbPage(ctx.pid, va);
                break;
              case 1:
                fast.mmu.flushTlbPid(ctx.pid);
                ref.mmu.flushTlbPid(ctx.pid);
                break;
              default:
                fast.mmu.flushTlbAll();
                ref.mmu.flushTlbAll();
                break;
            }
            HIX_RETURN_IF_ERROR(checkCounters("after flush"));
            break;
          }
          case 7: {  // bus routing differential, holes included
            const Addr addr = (op >> 8) % (8 * 1024 * 1024);
            const auto *a = fast.bus.route(addr);
            const auto *b = mem::linearRoute(attached, addr);
            if ((a == nullptr) != (b == nullptr))
                return errInternal("bus route presence divergence at " +
                                   hexWord(addr));
            if (a && (!(a->range == b->range) || a->target != b->target))
                return errInternal("bus route mapping divergence at " +
                                   hexWord(addr));
            break;
          }
        }
    }

    // Final sweep: every mapped virtual page must read back the same
    // bytes through both paths.
    for (ProcessId pid : {ProcessId(1), ProcessId(2)}) {
        const mem::ExecContext ctx{pid, InvalidEnclaveId};
        for (int page = 0; page < 32; ++page) {
            const Addr addr = 0x400000 + Addr(page) * mem::PageSize;
            Status a = fast.mmu.read(ctx, addr, buf_fast.data(),
                                     mem::PageSize);
            Status b =
                ref.mmu.read(ctx, addr, buf_ref.data(), mem::PageSize);
            if (a.code() != b.code())
                return errInternal("final sweep code divergence at " +
                                   hexWord(addr));
            if (a.isOk() &&
                !std::equal(buf_fast.begin(),
                            buf_fast.begin() + mem::PageSize,
                            buf_ref.begin()))
                return errInternal("final sweep byte divergence at " +
                                   hexWord(addr));
        }
    }
    return checkCounters("at end");
}

// ----- multi-GPU routing ----------------------------------------------

/**
 * A 2-4 GPU PCIe fabric driven against a per-device ownership shadow
 * model: the OS maps each device's DMA pages into that device's own
 * RAM partition, now and then onto a page of some device's BAR1, then
 * the stream interleaves IOMMU map/unmap, DMA reads/writes issued
 * under each device's requester identity, BAR1 VRAM pokes, and raw
 * translate probes. Properties: map/unmap/translate/DMA fault
 * verdicts match the shadow table exactly (per-domain isolation —
 * device k never resolves through device j's mappings), a DMA onto a
 * BAR page is PermissionDenied and moves nothing (no peer-to-peer),
 * BAR apertures never overlap, a BAR1 write lands in its device's
 * VRAM and no other's, and at the end RAM equals the shadow
 * byte-for-byte (no DMA ever strayed outside its owner's pages).
 */
Status
runMultiGpuRouting(const std::vector<std::uint64_t> &ops)
{
    std::size_t i = 0;
    auto next = [&]() -> std::uint64_t {
        return i < ops.size() ? ops[i++] : 0;
    };

    constexpr std::uint64_t RamSize = 1 * MiB;
    constexpr std::uint64_t RamPages = RamSize / mem::PageSize;
    constexpr std::uint64_t DevPages = 16;
    const int devices = 2 + static_cast<int>(next() % 3);

    mem::PhysicalBus ram_bus;
    mem::PhysMem ram("ram", RamSize);
    if (!ram_bus.attach(AddrRange(0, RamSize), &ram).isOk())
        return errInternal("RAM attach failed");
    mem::Iommu iommu;
    iommu.setEnabled(true);
    pcie::RootComplex rc(AddrRange(0xe0000000, 256 * MiB), &ram_bus,
                         &iommu);

    gpu::GpuGeometry geom;
    geom.vramSize = 4 * MiB;
    geom.bar0Size = 1 * MiB;
    geom.bar1Size = 1 * MiB;
    std::vector<std::unique_ptr<gpu::GpuDevice>> gpus;
    for (int d = 0; d < devices; ++d) {
        gpus.push_back(std::make_unique<gpu::GpuDevice>(
            "fuzz-gpu-" + std::to_string(d), geom,
            gpu::GpuPerfModel{}, sim::PlatformConfig::paper(),
            0xf022 + d));
        if (!rc.attachDevice(d, gpus.back().get()).isOk())
            return errInternal("GPU attach failed");
    }
    if (!rc.enumerate().isOk())
        return errInternal("enumeration failed");

    std::vector<Addr> bar1(devices);
    std::vector<std::vector<AddrRange>> bars(devices);
    for (int d = 0; d < devices; ++d) {
        auto ranges = rc.deviceBarRanges(gpus[d]->bdf());
        if (!ranges.isOk() || ranges->size() < 2)
            return errInternal("GPU missing BARs after enumeration");
        bars[d] = *ranges;
        bar1[d] = bars[d][1].start();
        if (rc.dmaDomainOf(gpus[d]->bdf()) !=
            static_cast<mem::IommuDomain>(d))
            return errInternal("requester domain != root-port index");
        for (int other = 0; other < d; ++other)
            for (const AddrRange &a : bars[d])
                for (const AddrRange &b : bars[other])
                    if (a.overlaps(b))
                        return errInternal(
                            "BAR windows of two devices overlap");
    }

    std::vector<std::uint8_t> shadow_ram(RamSize, 0);
    std::vector<std::unordered_map<Addr, Addr>> shadow_map(devices);
    std::vector<std::unordered_map<std::uint64_t, std::uint8_t>>
        shadow_vram(devices);
    const std::uint64_t bar1_pages = geom.bar1Size / mem::PageSize;

    // Device d's VRAM at [off, off + len) holds what the shadow says
    // (len <= 8).
    auto vramAsShadow = [&](int d, std::uint64_t off, std::size_t len) {
        std::uint8_t got[8];
        if (!gpus[d]->debugReadVram(off, got, len).isOk())
            return false;
        for (std::size_t b = 0; b < len; ++b) {
            const auto sv = shadow_vram[d].find(off + b);
            if (got[b] != (sv == shadow_vram[d].end() ? 0 : sv->second))
                return false;
        }
        return true;
    };

    while (i < ops.size()) {
        const std::uint64_t op = next();
        const int k = static_cast<int>((op >> 8) % devices);
        const Addr dpage = ((op >> 16) % DevPages) * mem::PageSize;
        switch (op % 6) {
          case 0: {  // OS maps a domain-k page into k's RAM partition,
                     // or onto a BAR1 page of any device
            const std::uint64_t own =
                ((op >> 24) % (RamPages / devices)) * devices + k;
            const Addr target =
                (op >> 44) % 8 == 0
                    ? bar1[(op >> 48) % devices] +
                          ((op >> 24) % bar1_pages) * mem::PageSize
                    : own * mem::PageSize;
            const bool present = shadow_map[k].count(dpage) != 0;
            const Status st = iommu.map(
                static_cast<mem::IommuDomain>(k), dpage, target);
            if (st.isOk() == present)
                return errInternal("map verdict diverged at " +
                                   hexWord(dpage));
            if (!present)
                shadow_map[k][dpage] = target;
            break;
          }
          case 1: {
            const bool present = shadow_map[k].count(dpage) != 0;
            const Status st = iommu.unmap(
                static_cast<mem::IommuDomain>(k), dpage);
            if (st.isOk() != present)
                return errInternal("unmap verdict diverged at " +
                                   hexWord(dpage));
            shadow_map[k].erase(dpage);
            break;
          }
          case 2:
          case 3: {  // DMA under device k's requester identity
            const std::uint64_t off = (op >> 24) % (mem::PageSize - 8);
            const std::size_t len = 1 + (op >> 56) % 8;
            const auto it = shadow_map[k].find(dpage);
            const bool mapped = it != shadow_map[k].end();
            if (mapped && it->second >= RamSize) {
                // Peer-to-peer onto a BAR1 page: refused, and no byte
                // moves either way.
                int owner = 0;
                while (!bars[owner][1].contains(it->second))
                    ++owner;
                const std::uint64_t voff = it->second - bar1[owner] + off;
                std::uint8_t buf[8];
                std::memset(buf, 0xc3, sizeof(buf));
                const Status st =
                    op % 6 == 2 ? rc.dmaWrite(gpus[k]->bdf(), dpage + off,
                                              buf, len)
                                : rc.dmaRead(gpus[k]->bdf(), dpage + off,
                                             buf, len);
                if (st.code() != StatusCode::PermissionDenied)
                    return errInternal("DMA onto a BAR page not refused "
                                       "at " +
                                       hexWord(dpage + off));
                if (std::count(buf, buf + sizeof(buf), 0xc3) != 8)
                    return errInternal("refused DMA read moved bytes");
                for (int d = 0; d < devices; ++d)
                    if (!vramAsShadow(d, voff, len))
                        return errInternal(
                            "refused DMA changed a device's VRAM");
                break;
            }
            std::uint8_t buf[8] = {};
            if (op % 6 == 2) {
                for (std::size_t b = 0; b < len; ++b)
                    buf[b] = static_cast<std::uint8_t>(op >> (8 * b)) ^
                             0x5a;
                const Status st = rc.dmaWrite(gpus[k]->bdf(),
                                              dpage + off, buf, len);
                if (st.isOk() != mapped)
                    return errInternal(
                        "DMA write fault verdict diverged at " +
                        hexWord(dpage + off));
                if (mapped)
                    std::memcpy(shadow_ram.data() + it->second + off,
                                buf, len);
            } else {
                const Status st = rc.dmaRead(gpus[k]->bdf(),
                                             dpage + off, buf, len);
                if (st.isOk() != mapped)
                    return errInternal(
                        "DMA read fault verdict diverged at " +
                        hexWord(dpage + off));
                if (mapped &&
                    std::memcmp(buf, shadow_ram.data() + it->second + off,
                                len) != 0)
                    return errInternal("DMA read bytes diverged at " +
                                       hexWord(dpage + off));
            }
            break;
          }
          case 4: {  // CPU pokes device k's VRAM through BAR1
            const std::uint64_t off = (op >> 16) % (geom.bar1Size - 8);
            const std::size_t len = 1 + (op >> 56) % 8;
            Bytes data(len);
            for (std::size_t b = 0; b < len; ++b)
                data[b] = static_cast<std::uint8_t>(op >> (8 * b)) ^
                          0xa5;
            if (!rc.routeTlp(pcie::Tlp::memWrite(bar1[k] + off, data))
                     .isOk())
                return errInternal("BAR1 write unroutable");
            for (std::size_t b = 0; b < len; ++b)
                shadow_vram[k][off + b] = data[b];
            // The write must be visible on device k and only there.
            for (int d = 0; d < devices; ++d)
                if (!vramAsShadow(d, off, len))
                    return errInternal(d == k
                                           ? "BAR1 write lost on its device"
                                           : "BAR1 write leaked into "
                                             "another device's VRAM");
            break;
          }
          case 5: {  // raw translate probe
            const auto want = shadow_map[k].find(dpage);
            const auto got = iommu.translate(
                static_cast<mem::IommuDomain>(k), dpage);
            if (got.isOk() != (want != shadow_map[k].end()))
                return errInternal(
                    "translate fault verdict diverged at " +
                    hexWord(dpage));
            if (got.isOk() && *got != want->second)
                return errInternal("translate crossed domains: " +
                                   hexWord(*got));
            break;
          }
        }
    }

    // No DMA ever strayed: RAM equals the shadow byte-for-byte.
    std::vector<std::uint8_t> final_ram(RamSize);
    if (!ram.readAt(0, final_ram.data(), RamSize).isOk())
        return errInternal("final RAM read failed");
    if (final_ram != shadow_ram) {
        for (std::uint64_t b = 0; b < RamSize; ++b)
            if (final_ram[b] != shadow_ram[b])
                return errInternal("RAM diverged from shadow at " +
                                   hexWord(b));
    }
    return Status::ok();
}

// ----- device views ----------------------------------------------------

/**
 * One GPU context over a small VRAM, driven by a stream of map/unmap,
 * byte writes, view reads and writes, scrubs, kernel launches and
 * recycled memories. Each op runs on two memories that share the
 * context's page map: the fast side through the default accessor,
 * which lends views, and the shadow through GpuMemAccessor::perPage()
 * and page-by-page writes only. Statuses and bytes must agree.
 */
Status
runDeviceViews(const std::vector<std::uint64_t> &ops)
{
    constexpr std::uint64_t VramPages = 32;
    constexpr std::uint64_t VramSize = VramPages * mem::PageSize;
    constexpr std::uint64_t VaPages = 48;
    constexpr Addr VaBase = 0x4000000;

    /** A u32 input, a u64 in-out and a u16 output, indexed so any
     *  contents and sizes are safe. */
    auto launch = [](const gpu::GpuMemAccessor &mem,
                     const gpu::KernelArgs &args) {
        using namespace workloads;
        return DeviceArrays(mem, arrayIn<std::uint32_t>(args[0], args[1]),
                            arrayInOut<std::uint64_t>(args[2], args[3]),
                            arrayOut<std::uint16_t>(args[4], args[5]))
            .run([](std::span<const std::uint32_t> a,
                    std::span<std::uint64_t> b,
                    std::span<std::uint16_t> c) {
                for (std::size_t i = 0; i < b.size(); ++i)
                    b[i] = b[i] * 31 + (a.empty() ? i : a[i % a.size()]);
                for (std::size_t i = 0; i < c.size(); ++i)
                    c[i] = static_cast<std::uint16_t>(
                        (a.empty() ? 0 : a[(i * 7) % a.size()]) +
                        (b.empty() ? i : b[i % b.size()]));
            });
    };

    struct Device
    {
        gpu::GpuContext ctx{1};
        std::unique_ptr<mem::PhysMem> fast;
        std::unique_ptr<mem::PhysMem> shadow;
    };
    Device d;
    d.fast = std::make_unique<mem::PhysMem>("views", VramSize);
    d.shadow = std::make_unique<mem::PhysMem>("shadow", VramSize);
    std::vector<std::uint8_t> buf(3 * mem::PageSize), ref(buf.size());

    auto fast = [&] { return gpu::GpuMemAccessor(&d.ctx, d.fast.get()); };
    auto shadow = [&] {
        return gpu::GpuMemAccessor::perPage(&d.ctx, d.shadow.get());
    };
    // A VA in (or just past) the context's window, page-aligned
    // half the time and otherwise at any byte.
    auto pickVa = [&](std::uint64_t bits) {
        const Addr page = VaBase + (bits % (VaPages + 2)) * mem::PageSize;
        return (bits >> 8) & 1 ? page : page + ((bits >> 9) % 64) * 3;
    };
    auto sameStatus = [](const Status &a, const Status &b,
                         const char *what) {
        if (a.toString() == b.toString())
            return Status::ok();
        return errInternal(std::string(what) + ": views " + a.toString() +
                           " vs per-page " + b.toString());
    };

    for (std::uint64_t op : ops) {
        const Addr va = pickVa(op >> 8);
        const std::size_t len = 1 + (op >> 24) % buf.size();
        switch (op % 9) {
          case 0: {  // map a run of VA pages onto any VRAM pages
            const std::uint64_t n = 1 + (op >> 40) % 4;
            (void)d.ctx.map(mem::pageBase(va),
                            ((op >> 44) % VramPages) * mem::PageSize,
                            std::min(n, VramPages - (op >> 44) % VramPages) *
                                mem::PageSize);
            break;
          }
          case 1:  // unmap
            (void)d.ctx.unmap(mem::pageBase(va),
                              (1 + (op >> 40) % 3) * mem::PageSize);
            break;
          case 2: {  // byte write through both accessors
            for (std::size_t i = 0; i < len; ++i)
                buf[i] = static_cast<std::uint8_t>(op >> (i % 56) ^ i);
            HIX_RETURN_IF_ERROR(sameStatus(fast().write(va, buf.data(), len),
                                           shadow().write(va, buf.data(),
                                                          len),
                                           "write"));
            break;
          }
          case 3: {  // a view reads what read() reads
            auto view = fast().view(va, len);
            Status read = shadow().read(va, ref.data(), len);
            if (view.isOk()) {
                if (!read.isOk())
                    return errInternal("view lent an unreadable range");
                if (std::memcmp(view->data(), ref.data(), len) != 0)
                    return errInternal("view bytes differ at " +
                                       hexWord(va));
            } else if (view.status().code() == StatusCode::AccessFault) {
                HIX_RETURN_IF_ERROR(
                    sameStatus(view.status(), read, "view fault"));
            } else if (view.status().code() !=
                       StatusCode::FailedPrecondition) {
                return errInternal("view: " + view.status().toString());
            }
            break;
          }
          case 4: {  // a write through a view lands like write()
            auto view = fast().view(va, len);
            if (!view.isOk())
                break;
            for (std::size_t i = 0; i < len; ++i)
                (*view)[i] = static_cast<std::uint8_t>((*view)[i] + op);
            if (!shadow().read(va, ref.data(), len).isOk())
                return errInternal("view over an unreadable range");
            for (std::size_t i = 0; i < len; ++i)
                ref[i] = static_cast<std::uint8_t>(ref[i] + op);
            if (!shadow().write(va, ref.data(), len).isOk())
                return errInternal("shadow write failed");
            break;
          }
          case 5: {  // scrub: cleared pages vs written zeros
            std::fill(ref.begin(), ref.end(), 0);
            HIX_RETURN_IF_ERROR(
                sameStatus(fast().zero(va, len),
                           shadow().write(va, ref.data(), len), "scrub"));
            break;
          }
          case 6:
          case 7: {  // launch the kernel on both sides
            const gpu::KernelArgs args = {
                pickVa(op >> 8),  (op >> 20) % 900,
                pickVa(op >> 30), (op >> 40) % 300,
                pickVa(op >> 49), (op >> 58) % 64 * 16};
            HIX_RETURN_IF_ERROR(sameStatus(launch(fast(), args),
                                           launch(shadow(), args),
                                           "launch"));
            break;
          }
          case 8:  // recycle both memories: fresh, on stale regions
            d.fast.reset();
            d.shadow.reset();
            d.fast = std::make_unique<mem::PhysMem>("views", VramSize);
            d.shadow = std::make_unique<mem::PhysMem>("shadow", VramSize);
            break;
        }
    }

    std::vector<std::uint8_t> a(VramSize), b(VramSize);
    if (!d.fast->readAt(0, a.data(), VramSize).isOk() ||
        !d.shadow->readAt(0, b.data(), VramSize).isOk())
        return errInternal("final VRAM read failed");
    for (std::uint64_t p = 0; p < VramPages; ++p) {
        if (std::memcmp(a.data() + p * mem::PageSize,
                        b.data() + p * mem::PageSize, mem::PageSize) != 0)
            return errInternal("VRAM page " + std::to_string(p) +
                               " differs from the per-page shadow");
    }
    return Status::ok();
}

// ----- iommu domains ---------------------------------------------------

Status
runIommuDomains(const std::vector<std::uint64_t> &ops)
{
    // A small IOTLB, so fills evict and later translates miss again.
    mem::Iommu iommu(8);
    iommu.setEnabled(true);
    std::map<std::pair<mem::IommuDomain, Addr>, Addr> shadow;
    // Device pages where a (domain, page) key packed into one word
    // would collide; the other half of the draws is any page at all.
    const Addr edges[8] = {0,
                           mem::PageSize,
                           (Addr{1} << 48) - mem::PageSize,
                           Addr{1} << 48,
                           Addr{1} << 49,
                           (Addr{1} << 63) - mem::PageSize,
                           Addr{1} << 63,
                           ~Addr{0} - mem::PageSize + 1};

    for (std::uint64_t op : ops) {
        const auto domain = static_cast<mem::IommuDomain>(
            (op >> 2) & 1 ? 0xffff - (op >> 3) % 2 : (op >> 3) % 3);
        const std::uint64_t sel = (op >> 5) & 0xf;
        const Addr dpage =
            sel < 8 ? edges[sel]
                    : mem::pageBase(op * 0x9E3779B97F4A7C15ull);
        const Addr ppage = ((op >> 9) & 0xff) * mem::PageSize;
        const Addr addr = dpage + (op >> 17) % mem::PageSize;
        const auto key = std::make_pair(domain, dpage);
        const auto it = shadow.find(key);
        auto where = [&] {
            return " of page " + hexWord(dpage) + " in domain " +
                   std::to_string(domain);
        };
        switch (op % 4) {
          case 0: {
            const bool mapped = iommu.map(domain, dpage, ppage).isOk();
            if (mapped != (it == shadow.end()))
                return errInternal("map" + where() +
                                   " disagrees with the shadow");
            if (mapped)
                shadow.emplace(key, ppage);
            break;
          }
          case 1: {
            const bool unmapped = iommu.unmap(domain, addr).isOk();
            if (unmapped != (it != shadow.end()))
                return errInternal("unmap" + where() +
                                   " disagrees with the shadow");
            if (unmapped)
                shadow.erase(it);
            break;
          }
          case 2:
            iommu.overwrite(domain, addr, ppage);
            shadow[key] = ppage;
            break;
          default: {
            auto r = iommu.translate(domain, addr);
            const bool agrees =
                it == shadow.end()
                    ? !r.isOk()
                    : r.isOk() && *r == it->second + mem::pageOffset(addr);
            if (!agrees)
                return errInternal("translate" + where() +
                                   " disagrees with the shadow");
          }
        }
    }
    if (iommu.entryCount() != shadow.size())
        return errInternal("IOMMU entry count disagrees with the shadow");
    return Status::ok();
}

}  // namespace

FuzzTarget
protocolFuzzTarget()
{
    return FuzzTarget{"protocol", 8, 48, runProtocol};
}

FuzzTarget
authChannelFuzzTarget()
{
    return FuzzTarget{"auth_channel", 1, 32, runAuthChannel};
}

FuzzTarget
mappingStateFuzzTarget()
{
    return FuzzTarget{"mapping_state", 1, 64, runMappingState};
}

FuzzTarget
memorySystemFuzzTarget()
{
    return FuzzTarget{"memory_system", 1, 64, runMemorySystem};
}

FuzzTarget
multiGpuRoutingFuzzTarget()
{
    return FuzzTarget{"multi_gpu_routing", 1, 64, runMultiGpuRouting};
}

FuzzTarget
deviceViewsFuzzTarget()
{
    return FuzzTarget{"device_views", 1, 64, runDeviceViews};
}

FuzzTarget
iommuDomainsFuzzTarget()
{
    return FuzzTarget{"iommu_domains", 1, 64, runIommuDomains};
}

void
registerBuiltinFuzzTargets(FuzzRunner &runner)
{
    runner.add(protocolFuzzTarget());
    runner.add(authChannelFuzzTarget());
    runner.add(mappingStateFuzzTarget());
    runner.add(memorySystemFuzzTarget());
    runner.add(multiGpuRoutingFuzzTarget());
    runner.add(deviceViewsFuzzTarget());
    runner.add(iommuDomainsFuzzTarget());
}

}  // namespace hix::harness
