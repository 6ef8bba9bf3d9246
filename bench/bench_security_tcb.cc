/**
 * @file
 * Reproduces Table 2 (TCB breakdown) and the Section 5.5 security
 * analysis as an executable attack matrix: every privileged-software
 * attack class is replayed against the unprotected baseline (where it
 * succeeds) and against HIX (where the named mechanism must block or
 * detect it). The binary exits non-zero if any HIX defense fails.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "hix/baseline_runtime.h"
#include "hix/gpu_enclave.h"
#include "hix/trusted_runtime.h"
#include "os/attacker.h"
#include "os/machine.h"

using namespace hix;

namespace
{

int failures = 0;
bench::BenchJson json("security_tcb");
bench::HostTimer row_timer;

void
row(const char *component, const char *attack, const char *mechanism,
    bool blocked, const char *baseline_note)
{
    std::printf("%-28s | %-34s | %-24s | %-8s | %s\n", component,
                attack, mechanism, blocked ? "BLOCKED" : "FAILED!",
                baseline_note);
    json.add(std::string(component) + " :: " + attack, 0,
             row_timer.ms())
        .metric("blocked", blocked ? 1.0 : 0.0);
    row_timer.reset();
    if (!blocked)
        ++failures;
}

}  // namespace

int
main()
{
    std::printf(
        "Table 2 / Section 5.5: HIX attack-surface matrix "
        "(privileged software adversary)\n\n");
    std::printf("%-28s | %-34s | %-24s | %-8s | %s\n", "TCB component",
                "Attack", "HIX mechanism", "HIX", "Unprotected baseline");
    std::printf("%s\n", std::string(140, '-').c_str());

    // ---- Baseline demonstration: plaintext recovery -------------------
    {
        os::Machine machine;
        core::BaselineRuntime victim(&machine, "victim");
        (void)victim.init();
        auto va = victim.memAlloc(4096);
        Bytes secret(64, 0x42);
        (void)victim.memcpyHtoD(*va, secret);
        os::Attacker attacker(&machine);
        auto leak = attacker.readDram(victim.hostBuffer().paddr, 64);
        const bool leaked = leak.isOk() && *leak == secret;
        std::printf("%-28s | %-34s | %-24s | %-8s | %s\n",
                    "(baseline, no HIX)", "read user data from DRAM",
                    "none", leaked ? "leaks" : "??",
                    "full plaintext recovered");
    }

    // ---- HIX platform under attack -------------------------------------
    os::Machine machine;
    auto ge = core::GpuEnclave::create(
        &machine, machine.gpu().factoryBiosDigest());
    if (!ge.isOk()) {
        std::printf("GPU enclave bring-up failed: %s\n",
                    ge.status().toString().c_str());
        return 1;
    }
    core::TrustedRuntime user(&machine, ge->get(), "victim");
    if (!user.connect().isOk())
        return 1;
    auto va = user.memAlloc(64 * KiB);
    Bytes secret(4096, 0x42);
    (void)user.memcpyHtoD(*va, secret);

    os::Attacker attacker(&machine);
    ProcessId evil = machine.os().createProcess("evil");

    // (1) Inter-enclave shared memory: inspect.
    {
        auto snoop = attacker.readDram(user.sharedRing().paddr, 4096);
        int matches = 0;
        for (int i = 0; i < 4096; ++i)
            if ((*snoop)[i] == secret[i])
                ++matches;
        row("Inter-enclave shared mem", "inspect DMA buffer in DRAM",
            "OCB-AES encryption", matches < 100,
            "plaintext visible");
    }

    // (1b) Inter-enclave shared memory: tamper (DMA integrity).
    {
        (void)attacker.tamperDram(user.sharedRing().paddr, 0xff);
        auto pushed = ge->get()->pushChunkHtoD(
            user.sessionId(), 0, 256, *va, 9999, sim::InvalidOpId);
        row("Inter-enclave shared mem", "corrupt staged ciphertext",
            "OCB-AES MAC", !pushed.isOk(), "silent corruption");
    }

    // (2) GPU enclave memory (EPC).
    {
        const sgx::Secs *secs =
            machine.sgx().secs(ge->get()->enclaveId());
        auto leak = attacker.mapAndRead(evil, secs->secs_page, 16);
        row("GPU enclave / GECS & TGMR", "map and read EPC pages",
            "SGX EPC protection", !leak.isOk(), "readable");
    }

    // (3) GPU registers via MMIO.
    {
        auto w = attacker.mapAndWrite(
            evil, machine.gpu().config().barBase(0), {1, 2, 3, 4});
        row("GPU registers (BAR0)", "map MMIO, forge GPU commands",
            "MMU (GECS/TGMR check)", !w.isOk(), "full GPU control");
    }

    // (4) GPU memory via the BAR1 aperture.
    {
        auto leak = attacker.mapAndRead(
            evil, machine.gpu().config().barBase(1), 64);
        row("GPU memory (BAR1)", "map aperture, dump VRAM",
            "MMU (GECS/TGMR check)", !leak.isOk(),
            "VRAM dump (CUDA-leaks)");
    }

    // (5) MMIO address-translation attack: remap the GPU enclave's
    // registered MMIO VA to attacker DRAM.
    {
        // 0x22000000 is the enclave's registered BAR0 VA.
        (void)attacker.remapPte(ge->get()->pid(), 0x22000000,
                                0x00200000);
        mem::ExecContext ctx{ge->get()->pid(),
                             ge->get()->enclaveId()};
        Bytes buf(4);
        Status st = machine.mmu().read(ctx, 0x22000000, buf.data(), 4);
        const bool blocked = !st.isOk();
        // Restore the genuine mapping for later rows.
        (void)attacker.remapPte(ge->get()->pid(), 0x22000000,
                                machine.gpu().config().barBase(0));
        row("MMIO address translation", "rewrite PTE to redirect MMIO",
            "TGMR check 4 (PA match)", blocked, "traffic hijacked");
    }

    // (6) PCIe routing rewrite.
    {
        Status st = attacker.rewriteConfig(machine.gpu().bdf(),
                                           pcie::cfg::Bar0, 0xdead0000);
        row("PCIe infrastructure", "rewrite BAR / bridge windows",
            "root-complex lockdown",
            st.code() == StatusCode::LockdownViolation,
            "packets rerouted");
    }

    // (7) DMA redirection through the IOMMU.
    {
        machine.iommu().setEnabled(true);
        (void)attacker.redirectDma(user.sharedRing().paddr,
                                   0x00300000);
        auto pushed = ge->get()->pushChunkHtoD(
            user.sessionId(), 0, 256, *va, 10000, sim::InvalidOpId);
        machine.iommu().setEnabled(false);
        row("DMA path", "redirect DMA via IOMMU tables",
            "OCB-AES MAC", !pushed.isOk(), "data swapped in flight");
    }

    // (8) Forged/replayed control request.
    {
        crypto::SealedMessage forged;
        forged.stream = 0;
        forged.sequence = 99999;
        forged.body = Bytes(64, 0x00);
        auto outcome = ge->get()->request(user.sessionId(), forged,
                                          sim::InvalidOpId);
        row("Request channel", "forge/replay sealed request",
            "OCB-AES + nonce", !outcome.isOk(), "commands injected");
    }

    // (9) GPU BIOS flash (fresh machine: flash happens pre-enclave).
    {
        os::Machine m2;
        os::Attacker a2(&m2);
        a2.flashGpuBios(Bytes(32, 0x66));
        auto ge2 = core::GpuEnclave::create(
            &m2, m2.gpu().factoryBiosDigest());
        row("GPU BIOS", "flash malicious VBIOS before boot",
            "enclave BIOS measurement", !ge2.isOk(),
            "persistent implant");
    }

    // (10) GPU emulation.
    {
        os::Machine m3;
        auto fresh = core::GpuEnclave::create(
            &m3, m3.gpu().factoryBiosDigest());
        Status st = m3.hixExt().egcreate((*fresh)->enclaveId() + 1,
                                         os::Attacker::emulatedGpuBdf());
        row("GPU identity", "offer software-emulated GPU",
            "root-complex enumeration", !st.isOk(),
            "keys go to fake GPU");
    }

    // (11) GPU enclave termination.
    {
        os::Machine m4;
        auto ge4 = core::GpuEnclave::create(
            &m4, m4.gpu().factoryBiosDigest());
        os::Attacker a4(&m4);
        (void)a4.killProcessAndEnclave((*ge4)->pid(),
                                       (*ge4)->enclaveId());
        auto rebind = core::GpuEnclave::create(
            &m4, m4.gpu().factoryBiosDigest());
        ProcessId evil4 = m4.os().createProcess("evil");
        auto leak =
            a4.mapAndRead(evil4, m4.gpu().config().barBase(1), 16);
        row("GPU enclave termination", "kill GPU enclave, rebind GPU",
            "GECS ownership lockout", !rebind.isOk() && !leak.isOk(),
            "GPU and data captured");
    }

    std::printf("\n%s\n",
                failures == 0
                    ? "All HIX defenses held (Table 2 reproduced)."
                    : "SOME DEFENSES FAILED");
    const bool wrote = json.write();
    return failures == 0 && wrote ? 0 : 1;
}
