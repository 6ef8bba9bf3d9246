#include "gpu/gpu_device.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/byte_utils.h"
#include "common/logging.h"
#include "crypto/hmac.h"
#include "pcie/root_complex.h"

namespace hix::gpu
{

namespace
{

/** Control-plane command handling cost (decode + state update). */
constexpr Tick ControlCost = 2 * US;
/** Fence publication cost. */
constexpr Tick FenceCost = 500 * NS;
/** One X25519 scalar multiplication on the GPU. */
constexpr Tick DhOpCost = 80 * US;
/** Full device reset (state machine + memory controller). */
constexpr Tick ResetCost = 5 * MS;

/** Copy-engine staging granularity (bounds dma_scratch_ growth). */
constexpr std::uint64_t DmaChunkBytes = 256 * KiB;

/**
 * The factory BIOS depends only on the ROM size (deterministic body,
 * seed-independent), so generating + hashing it once per geometry
 * takes the 64 KiB pattern loop and SHA-256 out of every machine
 * construction; the image itself is shared (the ROM is immutable
 * once flashed), so constructing a device is a refcount bump, not a
 * 64 KiB copy. Mutex-guarded: machines are built on concurrent
 * recording threads.
 */
struct BiosImage
{
    std::shared_ptr<const Bytes> image;
    crypto::Sha256Digest digest{};
};

std::mutex &
biosCacheMutex()
{
    static std::mutex mu;
    return mu;
}

std::map<std::uint64_t, BiosImage> &
biosCache()
{
    static std::map<std::uint64_t, BiosImage> cache;
    return cache;
}

}  // namespace

GpuDevice::GpuDevice(std::string name, const GpuGeometry &geometry,
                     const GpuPerfModel &perf,
                     const sim::PlatformConfig &timing,
                     std::uint64_t seed)
    : PcieDevice(std::move(name), 0x10de, 0x1080, 0x030000),
      geometry_(geometry),
      perf_(perf),
      timing_(timing),
      rng_(seed),
      vram_("vram", geometry.vramSize),
      key_slots_(geometry.numKeySlots)
{
    if (!config().declareBar(0, geometry_.bar0Size).isOk() ||
        !config().declareBar(1, geometry_.bar1Size).isOk() ||
        !config().declareExpansionRom(geometry_.romSize).isOk())
        hix_panic("GpuDevice: bad geometry");
    std::lock_guard<std::mutex> lock(biosCacheMutex());
    auto it = biosCache().find(geometry_.romSize);
    if (it == biosCache().end()) {
        BiosImage entry;
        entry.image =
            std::make_shared<const Bytes>(makeFactoryBios());
        entry.digest = crypto::Sha256::digest(*entry.image);
        it = biosCache().emplace(geometry_.romSize, std::move(entry))
                 .first;
    }
    factory_bios_digest_ = it->second.digest;
    setExpansionRomImage(it->second.image);
}

Bytes
GpuDevice::makeFactoryBios() const
{
    Bytes bios(geometry_.romSize, 0);
    bios[0] = 0x55;
    bios[1] = 0xaa;
    static const char sig[] = "HIX-MODEL-GF110-VBIOS-70.10.17.00";
    std::memcpy(bios.data() + 4, sig, sizeof(sig));
    // Deterministic body pattern standing in for init scripts.
    for (std::size_t i = 64; i < bios.size() - 4; ++i)
        bios[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 24);
    // Trailing additive checksum.
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < bios.size() - 4; ++i)
        sum += bios[i];
    storeLE32(bios.data() + bios.size() - 4, sum);
    return bios;
}

void
GpuDevice::flashBios(Bytes image)
{
    image.resize(geometry_.romSize, 0);
    setExpansionRomImage(std::move(image));
}

void
GpuDevice::record(GpuOp op, GpuEngine engine, GpuContextId ctx,
                  Tick duration, std::uint64_t bytes)
{
    costs_.push_back(CostRecord{op, engine, ctx, duration, bytes});
}

std::vector<CostRecord>
GpuDevice::drainCosts()
{
    std::vector<CostRecord> out;
    out.swap(costs_);
    return out;
}

Status
GpuDevice::debugReadVram(Addr pa, std::uint8_t *data, std::size_t len)
{
    return vram_.readAt(pa, data, len);
}

bool
GpuDevice::keySlotActive(std::uint32_t slot) const
{
    return slot < key_slots_.size() && key_slots_[slot].key.has_value();
}

void
GpuDevice::reset()
{
    for (auto &[id, ctx] : contexts_) {
        for (Addr page : ctx.mappedVramPages()) {
            (void)vram_.zeroAt(page, mem::PageSize);
            stats_.scrubbedBytes += mem::PageSize;
        }
    }
    contexts_.clear();
    key_slots_.clear();
    key_slots_.resize(geometry_.numKeySlots);
    fifo_.clear();
    cmd_status_ = static_cast<std::uint32_t>(CmdStatusCode::Ok);
    fence_value_ = 0;
    window_base_ = 0;
    last_error_.clear();
    ++stats_.resets;
    record(GpuOp::Nop, GpuEngine::Control, ~GpuContextId(0), ResetCost,
           0);
}

Result<GpuContext *>
GpuDevice::contextOf(std::uint64_t id)
{
    auto it = contexts_.find(static_cast<GpuContextId>(id));
    if (it == contexts_.end())
        return errNotFound("no GPU context " + std::to_string(id));
    return &it->second;
}

bool
GpuDevice::bar1InVram(std::uint64_t offset, std::size_t len) const
{
    const std::uint64_t size = geometry_.vramSize;
    return len <= size && window_base_ <= size - len &&
           offset <= size - len - window_base_;
}

Status
GpuDevice::mmioRead(int bar, std::uint64_t offset, std::uint8_t *data,
                    std::size_t len)
{
    if (bar == 1) {
        // Device-memory aperture.
        if (!bar1InVram(offset, len))
            return errInvalidArgument("BAR1 window beyond VRAM");
        return vram_.readAt(window_base_ + offset, data, len);
    }
    if (bar != 0)
        return errInvalidArgument("unknown BAR");
    if (len != 4 || offset % 4 != 0)
        return errInvalidArgument("BAR0 requires 32-bit access");

    std::uint32_t value = 0;
    switch (offset) {
      case reg::Id:
        value = 0x10de1080;
        break;
      case reg::Status:
        value = 1;
        break;
      case reg::CmdStatus:
        value = cmd_status_;
        break;
      case reg::FenceValue:
        value = fence_value_;
        break;
      case reg::WindowBaseLo:
        value = static_cast<std::uint32_t>(window_base_);
        break;
      case reg::WindowBaseHi:
        value = static_cast<std::uint32_t>(window_base_ >> 32);
        break;
      default:
        value = 0;
        break;
    }
    storeLE32(data, value);
    return Status::ok();
}

Status
GpuDevice::mmioWrite(int bar, std::uint64_t offset,
                     const std::uint8_t *data, std::size_t len)
{
    if (bar == 1) {
        if (!bar1InVram(offset, len))
            return errInvalidArgument("BAR1 window beyond VRAM");
        return vram_.writeAt(window_base_ + offset, data, len);
    }
    if (bar != 0)
        return errInvalidArgument("unknown BAR");
    if (len % 4 != 0 || offset % 4 != 0)
        return errInvalidArgument("BAR0 requires 32-bit access");

    for (std::size_t i = 0; i < len; i += 4) {
        const std::uint32_t value = loadLE32(data + i);
        const std::uint64_t reg_off = offset + i;
        switch (reg_off) {
          case reg::CmdFifo:
            fifo_.push_back(value);
            break;
          case reg::CmdDoorbell:
            runDoorbell();
            break;
          case reg::Reset:
            reset();
            break;
          case reg::WindowBaseLo:
            window_base_ =
                (window_base_ & ~Addr(0xffffffff)) | value;
            break;
          case reg::WindowBaseHi:
            window_base_ = (window_base_ & Addr(0xffffffff)) |
                           (static_cast<Addr>(value) << 32);
            break;
          default:
            // Posted write to an unimplemented register: ignored.
            break;
        }
    }
    return Status::ok();
}

void
GpuDevice::runDoorbell()
{
    cmd_status_ = static_cast<std::uint32_t>(CmdStatusCode::Busy);
    std::vector<std::uint32_t> words;
    words.swap(fifo_);

    // Reassemble 64-bit argument words.
    std::vector<std::uint64_t> stream;
    stream.reserve(words.size());
    for (std::uint32_t w : words)
        stream.push_back(w);

    std::size_t cursor = 0;
    while (cursor < stream.size()) {
        Status st = execCommand(stream, cursor);
        if (!st.isOk()) {
            cmd_status_ =
                static_cast<std::uint32_t>(CmdStatusCode::Error);
            last_error_ = st.toString();
            return;
        }
    }
    cmd_status_ = static_cast<std::uint32_t>(CmdStatusCode::Ok);
    last_error_.clear();
}

Status
GpuDevice::execCommand(const std::vector<std::uint64_t> &words,
                       std::size_t &cursor)
{
    if (words.size() - cursor < 3)
        return errInvalidArgument("truncated command header");
    const GpuOp op = static_cast<GpuOp>(words[cursor]);
    const GpuContextId ctx_id =
        static_cast<GpuContextId>(words[cursor + 1]);
    const std::uint64_t nargs = words[cursor + 2];
    cursor += 3;
    if (nargs > 64 || words.size() - cursor < 2 * nargs)
        return errInvalidArgument("truncated command arguments");

    KernelArgs args(nargs);
    for (std::uint64_t i = 0; i < nargs; ++i) {
        args[i] = words[cursor + 2 * i] |
                  (words[cursor + 2 * i + 1] << 32);
    }
    cursor += 2 * nargs;
    ++stats_.commands;

    switch (op) {
      case GpuOp::Nop:
        record(op, GpuEngine::Control, ctx_id, ControlCost, 0);
        return Status::ok();

      case GpuOp::CtxCreate: {
        if (contexts_.count(ctx_id))
            return errAlreadyExists("GPU context exists");
        contexts_.emplace(ctx_id, GpuContext(ctx_id));
        record(op, GpuEngine::Control, ctx_id, ControlCost, 0);
        return Status::ok();
      }

      case GpuOp::CtxDestroy: {
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        std::uint64_t scrubbed = 0;
        for (Addr page : (*ctx)->mappedVramPages()) {
            HIX_RETURN_IF_ERROR(vram_.zeroAt(page, mem::PageSize));
            scrubbed += mem::PageSize;
        }
        stats_.scrubbedBytes += scrubbed;
        contexts_.erase(ctx_id);
        record(op, GpuEngine::Compute, ctx_id,
               ControlCost +
                   transferTicks(scrubbed, timing_.gpuScrubBps),
               scrubbed);
        return Status::ok();
      }

      case GpuOp::Map: {
        if (args.size() != 3)
            return errInvalidArgument("Map needs 3 args");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        if (args[2] > geometry_.vramSize ||
            args[1] > geometry_.vramSize - args[2])
            return errInvalidArgument("Map beyond VRAM");
        HIX_RETURN_IF_ERROR((*ctx)->map(args[0], args[1], args[2]));
        record(op, GpuEngine::Control, ctx_id, ControlCost, 0);
        return Status::ok();
      }

      case GpuOp::Unmap: {
        if (args.size() != 2)
            return errInvalidArgument("Unmap needs 2 args");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        HIX_RETURN_IF_ERROR((*ctx)->unmap(args[0], args[1]));
        record(op, GpuEngine::Control, ctx_id, ControlCost, 0);
        return Status::ok();
      }

      case GpuOp::Scrub: {
        if (args.size() != 2)
            return errInvalidArgument("Scrub needs 2 args");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        HIX_RETURN_IF_ERROR(
            GpuMemAccessor(*ctx, &vram_).zero(args[0], args[1]));
        stats_.scrubbedBytes += args[1];
        record(op, GpuEngine::Compute, ctx_id,
               transferTicks(args[1], timing_.gpuScrubBps), args[1]);
        return Status::ok();
      }

      case GpuOp::CopyH2D: {
        if (args.size() != 3)
            return errInvalidArgument("CopyH2D needs 3 args");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        if (!rootComplex())
            return errUnavailable("GPU has no DMA path");
        // Stream through the bounded staging buffer: one DMA-in plus
        // one VRAM write per chunk, never a transfer-sized alloc.
        if (dma_scratch_.size() < std::min<std::uint64_t>(args[2],
                                                          DmaChunkBytes))
            dma_scratch_.resize(
                std::min<std::uint64_t>(args[2], DmaChunkBytes));
        GpuMemAccessor mem(*ctx, &vram_);
        std::uint64_t done = 0;
        while (done < args[2]) {
            const std::size_t chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(DmaChunkBytes, args[2] - done));
            HIX_RETURN_IF_ERROR(rootComplex()->dmaRead(
                bdf(), args[0] + done, dma_scratch_.data(), chunk));
            HIX_RETURN_IF_ERROR(
                mem.write(args[1] + done, dma_scratch_.data(), chunk));
            done += chunk;
        }
        ++stats_.copiesH2D;
        stats_.bytesH2D += args[2];
        record(op, GpuEngine::CopyHtoD, ctx_id,
               timing_.dmaSetupLatency +
                   transferTicks(args[2], timing_.dmaHtoDBps),
               args[2]);
        return Status::ok();
      }

      case GpuOp::CopyD2H: {
        if (args.size() != 3)
            return errInvalidArgument("CopyD2H needs 3 args");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        if (!rootComplex())
            return errUnavailable("GPU has no DMA path");
        if (dma_scratch_.size() < std::min<std::uint64_t>(args[2],
                                                          DmaChunkBytes))
            dma_scratch_.resize(
                std::min<std::uint64_t>(args[2], DmaChunkBytes));
        GpuMemAccessor mem(*ctx, &vram_);
        std::uint64_t done = 0;
        while (done < args[2]) {
            const std::size_t chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(DmaChunkBytes, args[2] - done));
            HIX_RETURN_IF_ERROR(
                mem.read(args[0] + done, dma_scratch_.data(), chunk));
            HIX_RETURN_IF_ERROR(rootComplex()->dmaWrite(
                bdf(), args[1] + done, dma_scratch_.data(), chunk));
            done += chunk;
        }
        ++stats_.copiesD2H;
        stats_.bytesD2H += args[2];
        record(op, GpuEngine::CopyDtoH, ctx_id,
               timing_.dmaSetupLatency +
                   transferTicks(args[2], timing_.dmaDtoHBps),
               args[2]);
        return Status::ok();
      }

      case GpuOp::KernelLaunch: {
        if (args.empty())
            return errInvalidArgument("KernelLaunch needs a kernel id");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        const KernelEntry *kernel =
            kernels_.find(static_cast<KernelId>(args[0]));
        if (!kernel)
            return errNotFound("unknown kernel id");
        KernelArgs kargs(args.begin() + 1, args.end());
        GpuMemAccessor mem(*ctx, &vram_);
        HIX_RETURN_IF_ERROR(kernel->fn(mem, kargs));
        ++stats_.kernels;
        record(op, GpuEngine::Compute, ctx_id,
               timing_.gpuKernelLaunch + kernel->cost(kargs), 0);
        return Status::ok();
      }

      case GpuOp::Fence: {
        if (args.size() != 1)
            return errInvalidArgument("Fence needs 1 arg");
        fence_value_ = static_cast<std::uint32_t>(args[0]);
        record(op, GpuEngine::Control, ctx_id, FenceCost, 0);
        return Status::ok();
      }

      case GpuOp::DhMix: {
        if (args.size() != 3)
            return errInvalidArgument("DhMix needs 3 args");
        if (args[0] >= key_slots_.size())
            return errInvalidArgument("bad key slot");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        KeySlot &slot = key_slots_[args[0]];
        if (!slot.have_pair) {
            slot.pair = crypto::X25519KeyPair::generate(rng_);
            slot.have_pair = true;
        }
        GpuMemAccessor mem(*ctx, &vram_);
        auto in = mem.readBytes(args[1], crypto::X25519KeySize);
        if (!in.isOk())
            return in.status();
        crypto::X25519Key peer;
        std::memcpy(peer.data(), in->data(), peer.size());
        crypto::X25519Key out =
            crypto::x25519(slot.pair.privateKey, peer);
        HIX_RETURN_IF_ERROR(
            mem.write(args[2], out.data(), out.size()));
        record(op, GpuEngine::Compute, ctx_id, DhOpCost, 0);
        return Status::ok();
      }

      case GpuOp::DhSetKey: {
        if (args.size() != 2)
            return errInvalidArgument("DhSetKey needs 2 args");
        if (args[0] >= key_slots_.size())
            return errInvalidArgument("bad key slot");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        KeySlot &slot = key_slots_[args[0]];
        if (!slot.have_pair) {
            slot.pair = crypto::X25519KeyPair::generate(rng_);
            slot.have_pair = true;
        }
        GpuMemAccessor mem(*ctx, &vram_);
        auto in = mem.readBytes(args[1], crypto::X25519KeySize);
        if (!in.isOk())
            return in.status();
        crypto::X25519Key peer;
        std::memcpy(peer.data(), in->data(), peer.size());
        crypto::X25519Key shared =
            crypto::x25519(slot.pair.privateKey, peer);
        Bytes secret(shared.begin(), shared.end());
        slot.key = crypto::deriveAesKey(secret, "hix-session");
        slot.ocb = std::make_unique<crypto::Ocb>(*slot.key);
        record(op, GpuEngine::Compute, ctx_id, DhOpCost, 0);
        return Status::ok();
      }

      case GpuOp::DhClearKey: {
        if (args.size() != 1 || args[0] >= key_slots_.size())
            return errInvalidArgument("bad key slot");
        key_slots_[args[0]] = KeySlot{};
        record(op, GpuEngine::Control, ctx_id, ControlCost, 0);
        return Status::ok();
      }

      case GpuOp::OcbEncrypt:
      case GpuOp::OcbDecrypt: {
        if (args.size() != 6)
            return errInvalidArgument("OCB command needs 6 args");
        if (args[0] >= key_slots_.size())
            return errInvalidArgument("bad key slot");
        KeySlot &slot = key_slots_[args[0]];
        if (!slot.ocb)
            return errFailedPrecondition("key slot has no session key");
        auto ctx = contextOf(ctx_id);
        if (!ctx.isOk())
            return ctx.status();
        GpuMemAccessor mem(*ctx, &vram_);

        const std::uint64_t pt_len = args[3];
        if (pt_len > geometry_.vramSize)
            return errInvalidArgument("OCB length exceeds VRAM");
        const crypto::OcbNonce nonce = crypto::makeNonce(
            static_cast<std::uint32_t>(args[4]), args[5]);

        // The op works on VRAM views where it can. The reused scratch
        // (allocation-free in steady state; the paging path runs the
        // op per page) takes a side that cannot be viewed, a source
        // that overlaps its destination, and every decrypted
        // plaintext, which reaches VRAM only once its tag verifies:
        // mem.write() then takes whole pages without zero-filling
        // them first.
        const std::uint64_t ct_len = pt_len + crypto::OcbTagSize;
        if (op == GpuOp::OcbEncrypt) {
            auto src = mem.view(args[1], pt_len);
            auto dst = mem.view(args[2], ct_len);
            const std::uint8_t *in = src.isOk() ? src->data() : nullptr;
            if (!src.isOk() || (dst.isOk() && spansOverlap(*src, *dst))) {
                crypto_in_.resize(pt_len);
                HIX_RETURN_IF_ERROR(
                    mem.read(args[1], crypto_in_.data(), pt_len));
                in = crypto_in_.data();
            }
            if (!dst.isOk())
                crypto_out_.resize(ct_len);
            std::uint8_t *out =
                dst.isOk() ? dst->data() : crypto_out_.data();
            slot.ocb->encryptInto(nonce, nullptr, 0, in, pt_len, out,
                                  out + pt_len);
            if (!dst.isOk())
                HIX_RETURN_IF_ERROR(
                    mem.write(args[2], crypto_out_.data(), ct_len));
        } else {
            auto src = mem.view(args[1], ct_len);
            const std::uint8_t *in = src.isOk() ? src->data() : nullptr;
            if (!src.isOk()) {
                crypto_in_.resize(ct_len);
                HIX_RETURN_IF_ERROR(
                    mem.read(args[1], crypto_in_.data(), ct_len));
                in = crypto_in_.data();
            }
            crypto_out_.resize(pt_len);
            Status ok = slot.ocb->decryptInto(nonce, nullptr, 0, in,
                                              pt_len, in + pt_len,
                                              crypto_out_.data());
            if (!ok.isOk()) {
                ++stats_.macFailures;
                return ok;
            }
            HIX_RETURN_IF_ERROR(
                mem.write(args[2], crypto_out_.data(), pt_len));
        }
        ++stats_.cryptoKernels;
        record(op, GpuEngine::Compute, ctx_id,
               timing_.gpuKernelLaunch +
                   transferTicks(pt_len, timing_.gpuOcbBps),
               pt_len);
        return Status::ok();
      }
    }
    return errInvalidArgument("unknown opcode");
}

}  // namespace hix::gpu
