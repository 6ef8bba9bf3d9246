/**
 * @file
 * Host-side microbenchmarks of the from-scratch crypto substrate
 * (google-benchmark, real wall-clock): AES-128 block ops, OCB-AES-128
 * seal/open across sizes and engines, SHA-256, HMAC, and X25519.
 * These underpin the functional data path; simulated-time crypto
 * costs come from the calibrated platform model, not from these
 * numbers.
 *
 * Before the google-benchmark suite runs, main() does a short
 * single-thread throughput sweep of OCB sealing on each engine
 * (reference scalar, T-table, fast), of opening on the fast engine,
 * of bare AES-128 (Aes128::encryptBlocks, ECB) on the fast engine,
 * the ceiling OCB's bulk loop runs against, and of SHA-256 on each
 * engine (scalar, fast), over message sizes 4 KiB .. 1 MiB; then it
 * times one X25519 scalar multiplication. It prints a MB/s table plus
 * the X25519 microseconds per operation, and writes the results to
 * BENCH_crypto.json in the working directory for CI trending.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/hmac.h"
#include "crypto/ocb.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"

using namespace hix;
using namespace hix::crypto;

namespace
{

AesKey
benchKey()
{
    Rng rng(42);
    AesKey key;
    rng.fill(key.data(), key.size());
    return key;
}

// ----- Throughput sweep (MB/s table + BENCH_crypto.json) ---------------

struct SweepResult
{
    std::string path;
    std::size_t bytes = 0;  //!< 0 for a per-operation row
    double mbPerSec = 0.0;
    double usPerOp = 0.0;   //!< per-operation rows only
    double hostMs = 0.0;    //!< wall clock spent measuring this row
};

/**
 * Wall-clock rate of fn() in units per microsecond, where one call
 * does @p units_per_call units (MB/s when a unit is a byte): best of
 * three ~50ms windows, so a scheduling hiccup on a shared host
 * degrades one window, not the reported number.
 */
template <typename Fn>
double
measureRate(std::size_t units_per_call, Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    // Warm-up (touches caches and the output buffer).
    fn();
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        const auto deadline = start + std::chrono::milliseconds(50);
        std::size_t calls = 0;
        auto now = start;
        do {
            fn();
            ++calls;
            now = Clock::now();
        } while (now < deadline);
        const double secs =
            std::chrono::duration<double>(now - start).count();
        best = std::max(
            best,
            static_cast<double>(calls * units_per_call) / (1e6 * secs));
    }
    return best;
}

std::vector<SweepResult>
runSweep()
{
    const AesKey key = benchKey();
    const Ocb ref(key, AesEngine::Reference);
    const Ocb ttable(key, AesEngine::TTable);
    const Ocb fast(key, AesEngine::Fast);
    const Aes128 fast_aes(key, AesEngine::Fast);

    std::vector<SweepResult> results;
    Rng rng(7);
    auto timed = [&results](const char *path, std::size_t bytes,
                            auto &&fn) {
        bench::HostTimer timer;
        const double mbps =
            measureRate(bytes, std::forward<decltype(fn)>(fn));
        results.push_back({path, bytes, mbps, timer.ms()});
    };
    for (std::size_t size : {std::size_t{4} * 1024,
                             std::size_t{64} * 1024,
                             std::size_t{256} * 1024,
                             std::size_t{1024} * 1024}) {
        const Bytes pt = rng.bytes(size);
        Bytes out(size + OcbTagSize);
        std::uint64_t ctr = 0;

        timed("ocb_seal_reference", size, [&] {
            ref.encryptInto(makeNonce(1, ++ctr), nullptr, 0,
                            pt.data(), size, out.data(),
                            out.data() + size);
        });
        timed("ocb_seal_ttable", size, [&] {
            ttable.encryptInto(makeNonce(1, ++ctr), nullptr, 0,
                               pt.data(), size, out.data(),
                               out.data() + size);
        });
        timed("ocb_seal_fast", size, [&] {
            fast.encryptInto(makeNonce(1, ++ctr), nullptr, 0,
                             pt.data(), size, out.data(),
                             out.data() + size);
        });

        // Open one message sealed under the same nonce, so every call
        // verifies its tag and writes the plaintext back.
        const OcbNonce open_nonce = makeNonce(2, 1);
        fast.encryptInto(open_nonce, nullptr, 0, pt.data(), size,
                         out.data(), out.data() + size);
        Bytes opened(size);
        timed("ocb_open_fast", size, [&] {
            (void)fast.decryptInto(open_nonce, nullptr, 0, out.data(),
                                   size, out.data() + size,
                                   opened.data());
        });
        if (opened != pt)
            std::fprintf(stderr, "ocb_open_fast: %zu-byte open failed\n",
                         size);

        timed("aes_ecb_fast", size, [&] {
            fast_aes.encryptBlocks(pt.data(), out.data(),
                                   size / AesBlockSize);
        });

        for (const auto &[path, engine] :
             {std::pair{"sha256_scalar", Sha256Engine::Scalar},
              std::pair{"sha256_fast", Sha256Engine::Fast}}) {
            timed(path, size, [&, engine = engine] {
                Sha256 h(engine);
                h.update(pt.data(), size);
                Sha256Digest digest = h.finalize();
                benchmark::DoNotOptimize(digest);
            });
        }
    }

    // One scalar multiplication per call, each on the previous
    // output, so no call can be folded away.
    bench::HostTimer timer;
    X25519Key scalar;
    rng.fill(scalar.data(), scalar.size());
    X25519Key u = x25519BasePoint();
    const double ops_per_us =
        measureRate(1, [&] { u = x25519(scalar, u); });
    results.push_back({"x25519", 0, 0.0, 1.0 / ops_per_us, timer.ms()});
    return results;
}

bool
reportSweep(const std::vector<SweepResult> &results)
{
    std::printf("\nCrypto throughput (host wall-clock)\n");
    std::printf("AES fast engine: %s; SHA-256 fast engine: %s\n",
                Aes128::hwSupported() ? "AES-NI" : "T-table",
                Sha256::hwSupported() ? "SHA-NI" : "scalar");
    std::printf("%-28s %10s %12s\n", "path", "bytes", "MB/s");
    for (const auto &r : results) {
        if (r.bytes == 0)
            std::printf("%-28s %10s %9.1f us/op\n", r.path.c_str(), "-",
                        r.usPerOp);
        else
            std::printf("%-28s %10zu %12.1f\n", r.path.c_str(), r.bytes,
                        r.mbPerSec);
    }

    // Headline ratios at 64 KiB: the fast engine against the scalar
    // oracle, and OCB sealing against the cipher's own ceiling.
    double ref64 = 0.0, fast64 = 0.0, ecb64 = 0.0;
    double sha_scalar64 = 0.0, sha_fast64 = 0.0;
    for (const auto &r : results) {
        if (r.bytes != 64 * 1024)
            continue;
        if (r.path == "ocb_seal_reference")
            ref64 = r.mbPerSec;
        else if (r.path == "ocb_seal_fast")
            fast64 = r.mbPerSec;
        else if (r.path == "aes_ecb_fast")
            ecb64 = r.mbPerSec;
        else if (r.path == "sha256_scalar")
            sha_scalar64 = r.mbPerSec;
        else if (r.path == "sha256_fast")
            sha_fast64 = r.mbPerSec;
    }
    if (ref64 > 0.0)
        std::printf("fast/reference speedup at 64KiB: %.1fx\n",
                    fast64 / ref64);
    if (ecb64 > 0.0)
        std::printf("fast OCB seal / ECB at 64KiB: %.2f\n", fast64 / ecb64);
    if (sha_scalar64 > 0.0)
        std::printf("SHA-256 fast/scalar at 64KiB: %.1fx\n",
                    sha_fast64 / sha_scalar64);
    std::printf("\n");

    bench::BenchJson json("crypto");
    for (const auto &r : results) {
        if (r.bytes == 0)
            json.add("path=" + r.path, 0, r.hostMs)
                .metric("us_per_op", r.usPerOp);
        else
            json.add("path=" + r.path +
                         " bytes=" + std::to_string(r.bytes),
                     0, r.hostMs)
                .metric("mb_per_sec", r.mbPerSec);
    }
    const bool wrote = json.write();
    std::printf("\n");
    return wrote;
}

// ----- google-benchmark suite ------------------------------------------

AesEngine
engineArg(const benchmark::State &state)
{
    switch (state.range(0)) {
      case 0:
        return AesEngine::Reference;
      case 1:
        return AesEngine::TTable;
      default:
        return AesEngine::Fast;
    }
}

const char *
engineName(AesEngine engine)
{
    switch (engine) {
      case AesEngine::Reference:
        return "reference";
      case AesEngine::TTable:
        return "ttable";
      default:
        return Aes128::hwSupported() ? "fast(aesni)" : "fast(ttable)";
    }
}

void
BM_AesEncryptBlock(benchmark::State &state)
{
    const AesEngine engine = engineArg(state);
    Aes128 aes(benchKey(), engine);
    AesBlock block{};
    for (auto _ : state) {
        aes.encryptBlock(block.data(), block.data());
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * AesBlockSize);
    state.SetLabel(engineName(engine));
}
BENCHMARK(BM_AesEncryptBlock)->Arg(0)->Arg(1)->Arg(2);

void
BM_AesDecryptBlock(benchmark::State &state)
{
    const AesEngine engine = engineArg(state);
    Aes128 aes(benchKey(), engine);
    AesBlock block{};
    for (auto _ : state) {
        aes.decryptBlock(block.data(), block.data());
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * AesBlockSize);
    state.SetLabel(engineName(engine));
}
BENCHMARK(BM_AesDecryptBlock)->Arg(0)->Arg(1)->Arg(2);

void
BM_AesEncryptBlocksWide(benchmark::State &state)
{
    Aes128 aes(benchKey());
    std::vector<std::uint8_t> buf(64 * AesBlockSize);
    for (auto _ : state) {
        aes.encryptBlocks(buf.data(), buf.data(),
                          buf.size() / AesBlockSize);
        benchmark::DoNotOptimize(buf);
    }
    state.SetBytesProcessed(state.iterations() * buf.size());
}
BENCHMARK(BM_AesEncryptBlocksWide);

void
BM_OcbEncrypt(benchmark::State &state)
{
    const AesEngine engine = engineArg(state);
    Ocb ocb(benchKey(), engine);
    Rng rng(7);
    Bytes pt = rng.bytes(state.range(1));
    Bytes out(pt.size() + OcbTagSize);
    std::uint64_t ctr = 0;
    for (auto _ : state) {
        ocb.encryptInto(makeNonce(1, ++ctr), nullptr, 0, pt.data(),
                        pt.size(), out.data(),
                        out.data() + pt.size());
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(state.iterations() * state.range(1));
    state.SetLabel(engineName(engine));
}
BENCHMARK(BM_OcbEncrypt)
    ->Args({0, 1024})
    ->Args({0, 64 * 1024})
    ->Args({0, 1024 * 1024})
    ->Args({1, 64 * 1024})
    ->Args({2, 1024})
    ->Args({2, 64 * 1024})
    ->Args({2, 1024 * 1024});

void
BM_OcbDecrypt(benchmark::State &state)
{
    const AesEngine engine = engineArg(state);
    Ocb ocb(benchKey(), engine);
    Rng rng(8);
    Bytes pt = rng.bytes(state.range(1));
    Bytes ct = ocb.encrypt(makeNonce(2, 1), {}, pt);
    Bytes out(pt.size());
    for (auto _ : state) {
        Status st = ocb.decryptInto(makeNonce(2, 1), nullptr, 0,
                                    ct.data(), pt.size(),
                                    ct.data() + pt.size(), out.data());
        benchmark::DoNotOptimize(st);
    }
    state.SetBytesProcessed(state.iterations() * state.range(1));
    state.SetLabel(engineName(engine));
}
BENCHMARK(BM_OcbDecrypt)
    ->Args({0, 64 * 1024})
    ->Args({1, 64 * 1024})
    ->Args({2, 1024})
    ->Args({2, 64 * 1024})
    ->Args({2, 1024 * 1024});

void
BM_Sha256(benchmark::State &state)
{
    Rng rng(9);
    Bytes data = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto digest = Sha256::digest(data);
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(64 * 1024)->Arg(1024 * 1024);

void
BM_HmacSha256(benchmark::State &state)
{
    Rng rng(10);
    Bytes key = rng.bytes(32);
    Bytes data = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto mac = hmacSha256(key, data);
        benchmark::DoNotOptimize(mac);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void
BM_X25519(benchmark::State &state)
{
    Rng rng(11);
    auto pair = X25519KeyPair::generate(rng);
    X25519Key peer = x25519BasePoint();
    for (auto _ : state) {
        auto shared = x25519(pair.privateKey, peer);
        benchmark::DoNotOptimize(shared);
    }
}
BENCHMARK(BM_X25519);

}  // namespace

int
main(int argc, char **argv)
{
    const bool wrote = reportSweep(runSweep());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return wrote ? 0 : 1;
}
