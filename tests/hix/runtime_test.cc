/**
 * @file
 * End-to-end tests of the trusted runtime against the GPU enclave:
 * session setup, encrypted transfers (single- and multi-chunk, and at
 * every chunk edge), kernel execution on decrypted data, multi-session
 * isolation, chunk bounds, data-path variants, and attacker-facing
 * properties.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "common/byte_utils.h"
#include "common/rng.h"
#include "hix/baseline_runtime.h"
#include "hix/gpu_enclave.h"
#include "hix/trusted_runtime.h"
#include "os/attacker.h"
#include "os/machine.h"

namespace hix::core
{
namespace
{

/** Register the test kernels on a machine's GPU. */
void
registerKernels(os::Machine &machine)
{
    machine.gpu().kernels().add(
        "add_one_u32",
        [](const gpu::GpuMemAccessor &mem,
           const gpu::KernelArgs &args) -> Status {
            for (std::uint64_t i = 0; i < args[1]; ++i) {
                auto v = mem.read32(args[0] + 4 * i);
                if (!v.isOk())
                    return v.status();
                HIX_RETURN_IF_ERROR(mem.write32(args[0] + 4 * i, *v + 1));
            }
            return Status::ok();
        },
        [](const gpu::KernelArgs &args) { return Tick(args[1]); });
}

Bytes
patternBytes(std::size_t n, std::uint8_t seed = 0)
{
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<std::uint8_t>(i * 31 + seed);
    return b;
}

class RuntimeTest : public ::testing::Test
{
  protected:
    RuntimeTest()
    {
        registerKernels(machine_);
        auto ge = GpuEnclave::create(&machine_,
                                     machine_.gpu().factoryBiosDigest(),
                                     config_);
        EXPECT_TRUE(ge.isOk()) << ge.status().toString();
        ge_ = std::move(*ge);
    }

    HixConfig config_{};
    os::Machine machine_;
    std::unique_ptr<GpuEnclave> ge_;
};

TEST_F(RuntimeTest, ConnectEstablishesSession)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    EXPECT_EQ(ge_->sessionCount(), 1u);
    EXPECT_NE(user.sessionId(), 0u);
}

TEST_F(RuntimeTest, SmallRoundTrip)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());

    Bytes data = patternBytes(1000);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto back = user.memcpyDtoH(*va, data.size());
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, data);
}

TEST_F(RuntimeTest, MultiChunkRoundTrip)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    // > 2 chunks of 4 MiB to exercise the ring and nonce counters.
    const std::size_t total = 9 * MiB + 12345;
    auto va = user.memAlloc(total);
    ASSERT_TRUE(va.isOk());
    Bytes data = patternBytes(total);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto back = user.memcpyDtoH(*va, total);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, data);
}

TEST_F(RuntimeTest, KernelSeesDecryptedDataAndResultsReturn)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    const int n = 256;
    auto va = user.memAlloc(4 * n);
    ASSERT_TRUE(va.isOk());

    Bytes data(4 * n);
    for (int i = 0; i < n; ++i)
        storeLE32(data.data() + 4 * i, i);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());

    auto kid = user.loadModule("add_one_u32");
    ASSERT_TRUE(kid.isOk());
    ASSERT_TRUE(user.launchKernel(*kid, {*va, n}).isOk());

    auto back = user.memcpyDtoH(*va, 4 * n);
    ASSERT_TRUE(back.isOk());
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(loadLE32(back->data() + 4 * i),
                  static_cast<std::uint32_t>(i + 1));
}

TEST_F(RuntimeTest, SharedMemoryHoldsOnlyCiphertext)
{
    // Section 5.5 attack (1): the adversary inspects the
    // inter-enclave shared memory. It must see ciphertext.
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());
    Bytes secret(600, 0x5a);
    ASSERT_TRUE(user.memcpyHtoD(*va, secret).isOk());

    os::Attacker attacker(&machine_);
    auto snooped =
        attacker.readDram(user.sharedRing().paddr, secret.size());
    ASSERT_TRUE(snooped.isOk());
    // Count positions matching the plaintext: should look random.
    int matches = 0;
    for (std::size_t i = 0; i < secret.size(); ++i)
        if ((*snooped)[i] == secret[i])
            ++matches;
    EXPECT_LT(matches, 30);  // ~600/256 expected by chance
}

TEST_F(RuntimeTest, TamperedDmaDataDetected)
{
    // Section 5.5 DMA attack (5): corrupt the staged ciphertext; the
    // in-GPU integrity check must reject it.
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());

    // Stage garbage directly in the ring and push it as a chunk.
    os::Attacker attacker(&machine_);
    ASSERT_TRUE(attacker.tamperDram(user.sharedRing().paddr, 0xff).isOk());
    auto result = ge_->pushChunkHtoD(user.sessionId(), 0, 100, *va,
                                     /*counter=*/999,
                                     sim::InvalidOpId);
    EXPECT_FALSE(result.isOk());
    EXPECT_GE(machine_.gpu().stats().macFailures, 1u);
}

TEST_F(RuntimeTest, ForgedRequestRejected)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());

    crypto::SealedMessage forged;
    forged.stream = 0;
    forged.sequence = 1000;
    forged.body = Bytes(64, 0x41);
    auto outcome =
        ge_->request(user.sessionId(), forged, sim::InvalidOpId);
    EXPECT_FALSE(outcome.isOk());
    EXPECT_EQ(outcome.status().code(), StatusCode::IntegrityFailure);
}

TEST_F(RuntimeTest, TwoSessionsAreIsolated)
{
    TrustedRuntime alice(&machine_, ge_.get(), "alice", 0);
    TrustedRuntime bob(&machine_, ge_.get(), "bob", 1);
    ASSERT_TRUE(alice.connect().isOk());
    ASSERT_TRUE(bob.connect().isOk());
    EXPECT_EQ(ge_->sessionCount(), 2u);

    auto va_a = alice.memAlloc(4096);
    auto va_b = bob.memAlloc(4096);
    ASSERT_TRUE(va_a.isOk());
    ASSERT_TRUE(va_b.isOk());

    Bytes data_a = patternBytes(512, 1);
    Bytes data_b = patternBytes(512, 2);
    ASSERT_TRUE(alice.memcpyHtoD(*va_a, data_a).isOk());
    ASSERT_TRUE(bob.memcpyHtoD(*va_b, data_b).isOk());

    auto back_a = alice.memcpyDtoH(*va_a, 512);
    auto back_b = bob.memcpyDtoH(*va_b, 512);
    ASSERT_TRUE(back_a.isOk());
    ASSERT_TRUE(back_b.isOk());
    EXPECT_EQ(*back_a, data_a);
    EXPECT_EQ(*back_b, data_b);

    // Bob cannot read Alice's buffer: the GPU VAs live in different
    // GPU contexts, so Bob's context faults on Alice's address.
    auto stolen = bob.memcpyDtoH(*va_a, 512);
    if (stolen.isOk()) {
        // Same VA may exist in Bob's context only if it is his own
        // allocation; the data must not be Alice's.
        EXPECT_NE(*stolen, data_a);
    }
}

TEST_F(RuntimeTest, CloseSessionScrubsAndReleases)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());
    ASSERT_TRUE(user.memcpyHtoD(*va, patternBytes(4096)).isOk());

    const std::uint64_t scrubbed_before =
        machine_.gpu().stats().scrubbedBytes;
    ASSERT_TRUE(user.close().isOk());
    EXPECT_EQ(ge_->sessionCount(), 0u);
    EXPECT_GT(machine_.gpu().stats().scrubbedBytes, scrubbed_before);

    // Requests after close fail cleanly.
    EXPECT_FALSE(user.memAlloc(4096).isOk());
}

TEST_F(RuntimeTest, HixTraceContainsCryptoAndTransferOps)
{
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(1 * MiB);
    ASSERT_TRUE(va.isOk());

    machine_.clearTrace();
    // NB: clearTrace resets actors; acceptable for trace inspection.
    ASSERT_TRUE(user.memcpyHtoD(*va, patternBytes(1 * MiB)).isOk());

    const auto &trace = machine_.trace();
    EXPECT_GT(trace.totalDuration(sim::OpKind::CryptoCpu), 0u);
    EXPECT_GT(trace.totalDuration(sim::OpKind::CryptoGpu), 0u);
    EXPECT_GT(trace.totalDuration(sim::OpKind::Transfer), 0u);
    EXPECT_EQ(trace.totalBytes(sim::OpKind::CryptoCpu), 1 * MiB);
}

TEST_F(RuntimeTest, OversizedDtoHIsRejectedBeforeAllocating)
{
    // A length past the GPU's VRAM (or one that wraps the VA space)
    // is refused before the DtoHBegin request and before the result
    // buffer is allocated, and the session stays usable.
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());
    for (std::uint64_t len : {1ull << 40, ~0ull - 4095}) {
        SCOPED_TRACE(len);
        auto back = user.memcpyDtoH(*va, len);
        ASSERT_FALSE(back.isOk());
        EXPECT_EQ(back.status().code(), StatusCode::InvalidArgument);
    }
    const Bytes data = patternBytes(4096, 5);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto back = user.memcpyDtoH(*va, data.size());
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, data);
}

TEST_F(RuntimeTest, OutOfBoundsChunkRejectedBeforeDma)
{
    // A chunk whose ciphertext overflows a GPU staging slot, or whose
    // ring window leaves the session's shared memory, must fail with
    // InvalidArgument before any DMA and leave the session usable.
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());
    const std::uint32_t sid = user.sessionId();

    // A staging slot holds one chunk's ciphertext, page-rounded.
    const std::uint64_t chunk =
        machine_.config().timing.pipelineChunkBytes / config_.timingScale;
    const std::uint64_t slot =
        (chunk + crypto::OcbTagSize + mem::PageSize - 1) &
        ~(mem::PageSize - 1);
    auto push = [&](std::uint64_t ring_off, std::uint64_t len) {
        return ge_->pushChunkHtoD(sid, ring_off, len, *va, 1,
                                  sim::InvalidOpId)
            .status()
            .code();
    };
    auto pull = [&](std::uint64_t ring_off, std::uint64_t len) {
        return ge_->pullChunkDtoH(sid, *va, len, ring_off, 1,
                                  sim::InvalidOpId)
            .status()
            .code();
    };
    const std::uint64_t lens[] = {~0ull - 15, 1ull << 40,
                                  slot - crypto::OcbTagSize + 1};
    for (std::uint64_t len : lens) {
        SCOPED_TRACE(len);
        EXPECT_EQ(push(0, len), StatusCode::InvalidArgument);
        EXPECT_EQ(pull(0, len), StatusCode::InvalidArgument);
    }
    const std::uint64_t ring = user.sharedRing().size;
    const std::uint64_t ring_offs[] = {ring - 16, ring, 1ull << 40, ~0ull};
    for (std::uint64_t ring_off : ring_offs) {
        SCOPED_TRACE(ring_off);
        EXPECT_EQ(push(ring_off, 100), StatusCode::InvalidArgument);
        EXPECT_EQ(pull(ring_off, 100), StatusCode::InvalidArgument);
    }

    const Bytes data = patternBytes(1000);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto back = user.memcpyDtoH(*va, data.size());
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    EXPECT_EQ(*back, data);
}

/** A transfer of chunks * chunk + delta bytes, named for the test id. */
struct ChunkEdge
{
    const char *name;
    std::uint64_t chunks;
    std::int64_t delta;
};

/** Print the case by name. gtest's default byte dump would embed the
 *  name pointer, so the registered ctest names would change whenever
 *  the binary's layout does. */
void
PrintTo(const ChunkEdge &c, std::ostream *os)
{
    *os << c.name;
}

class RuntimeChunkEdgeTest : public RuntimeTest,
                             public ::testing::WithParamInterface<ChunkEdge>
{
};

TEST_P(RuntimeChunkEdgeTest, TwoRoundTripsOnOneSession)
{
    const std::uint64_t chunk =
        machine_.config().timing.pipelineChunkBytes / config_.timingScale;
    const std::uint64_t size = GetParam().chunks * chunk + GetParam().delta;
    TrustedRuntime user(&machine_, ge_.get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(size);
    ASSERT_TRUE(va.isOk());

    // Random bytes, so no two chunks share a plaintext. The second
    // transfer starts from the nonce counters the first one left, so
    // it opens only if both sides stayed in step.
    Rng rng(size);
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        const Bytes data = rng.bytes(size);
        ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
        auto back = user.memcpyDtoH(*va, size);
        ASSERT_TRUE(back.isOk()) << back.status().toString();
        EXPECT_TRUE(*back == data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChunkEdges, RuntimeChunkEdgeTest,
    ::testing::Values(ChunkEdge{"one_byte", 0, 1},
                      ChunkEdge{"chunk_minus_one", 1, -1},
                      ChunkEdge{"one_chunk", 1, 0},
                      ChunkEdge{"chunk_plus_one", 1, 1},
                      ChunkEdge{"two_chunks", 2, 0},
                      ChunkEdge{"two_chunks_plus_17", 2, 17}),
    [](const ::testing::TestParamInfo<ChunkEdge> &info) {
        return std::string(info.param.name);
    });

class NaiveCopyTest : public ::testing::Test
{
};

TEST_F(NaiveCopyTest, DoubleCopyPathStillCorrect)
{
    os::Machine machine;
    registerKernels(machine);
    HixConfig config;
    config.singleCopy = false;
    auto ge = GpuEnclave::create(
        &machine, machine.gpu().factoryBiosDigest(), config);
    ASSERT_TRUE(ge.isOk());

    TrustedRuntime user(&machine, ge->get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(5 * MiB);
    ASSERT_TRUE(va.isOk());
    Bytes data = patternBytes(5 * MiB);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto back = user.memcpyDtoH(*va, data.size());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, data);
}

TEST_F(NaiveCopyTest, PioPathStillCorrect)
{
    os::Machine machine;
    registerKernels(machine);
    HixConfig config;
    config.usePio = true;
    auto ge = GpuEnclave::create(
        &machine, machine.gpu().factoryBiosDigest(), config);
    ASSERT_TRUE(ge.isOk());

    TrustedRuntime user(&machine, ge->get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(1 * MiB);
    ASSERT_TRUE(va.isOk());
    Bytes data = patternBytes(300000);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto back = user.memcpyDtoH(*va, data.size());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, data);
}

TEST(BaselineRuntimeTest, PlainRoundTripAndKernel)
{
    os::Machine machine;
    registerKernels(machine);
    BaselineRuntime user(&machine, "plain");
    ASSERT_TRUE(user.init().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());

    Bytes data(4 * 64);
    for (int i = 0; i < 64; ++i)
        storeLE32(data.data() + 4 * i, 100 + i);
    ASSERT_TRUE(user.memcpyHtoD(*va, data).isOk());
    auto kid = user.loadModule("add_one_u32");
    ASSERT_TRUE(kid.isOk());
    ASSERT_TRUE(user.launchKernel(*kid, {*va, 64}).isOk());
    auto back = user.memcpyDtoH(*va, data.size());
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(loadLE32(back->data()), 101u);
    ASSERT_TRUE(user.close().isOk());
}

TEST(BaselineRuntimeTest, BaselineLeaksPlaintextToAttacker)
{
    // The motivating contrast: in the unprotected system the
    // privileged adversary reads the user's data straight out of the
    // staging buffer (and could do the same via the GPU BAR).
    os::Machine machine;
    registerKernels(machine);
    BaselineRuntime user(&machine, "victim");
    ASSERT_TRUE(user.init().isOk());
    auto va = user.memAlloc(4096);
    ASSERT_TRUE(va.isOk());
    Bytes secret(128, 0x77);
    ASSERT_TRUE(user.memcpyHtoD(*va, secret).isOk());

    os::Attacker attacker(&machine);
    auto leaked = attacker.readDram(user.hostBuffer().paddr, 128);
    ASSERT_TRUE(leaked.isOk());
    EXPECT_EQ(*leaked, secret);  // full plaintext recovery
}

TEST(HixVsBaselineTest, HixCostsMoreOnTransfers)
{
    os::Machine machine;
    registerKernels(machine);

    // Baseline 1 MiB HtoD.
    BaselineRuntime base(&machine, "base");
    ASSERT_TRUE(base.init().isOk());
    auto bva = base.memAlloc(1 * MiB);
    ASSERT_TRUE(bva.isOk());
    machine.clearTrace();
    ASSERT_TRUE(base.memcpyHtoD(*bva, Bytes(1 * MiB, 1)).isOk());
    const Tick base_time = machine.scheduleTrace().makespan;

    // HIX 1 MiB HtoD.
    auto ge = GpuEnclave::create(&machine,
                                 machine.gpu().factoryBiosDigest());
    ASSERT_TRUE(ge.isOk());
    TrustedRuntime user(&machine, ge->get(), "app");
    ASSERT_TRUE(user.connect().isOk());
    auto va = user.memAlloc(1 * MiB);
    ASSERT_TRUE(va.isOk());
    machine.clearTrace();
    ASSERT_TRUE(user.memcpyHtoD(*va, Bytes(1 * MiB, 1)).isOk());
    const Tick hix_time = machine.scheduleTrace().makespan;

    EXPECT_GT(hix_time, base_time);
    // But not absurdly so (pipelining bounds the crypto cost).
    EXPECT_LT(hix_time, 20 * base_time);
}

}  // namespace
}  // namespace hix::core
