/**
 * @file
 * Transfer accounting: the timed bytes each workload moves must match
 * the Table 5 / Table 4 volumes the paper reports (that is what the
 * timing model charges). Guards the padding logic and the
 * timing-scale plumbing against regressions.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "hix/baseline_runtime.h"
#include "os/machine.h"
#include "workloads/workload.h"

namespace hix::workloads
{
namespace
{

struct AccountingCase
{
    const char *app;
    /** Acceptable relative deviation (PF's tiny DtoH rounds up). */
    double dtohTolerance;
};

/** Print the case by value. gtest's default byte dump would embed the
 *  app-name pointer, which moves with address-space randomisation, so
 *  the registered ctest names would change on every build. */
void
PrintTo(const AccountingCase &c, std::ostream *os)
{
    *os << c.app << " dtoh_tol=" << c.dtohTolerance;
}

class TransferAccountingTest
    : public ::testing::TestWithParam<AccountingCase>
{
};

TEST_P(TransferAccountingTest, TimedBytesMatchTable5)
{
    const AccountingCase param = GetParam();
    auto workload = makeRodinia(param.app);
    ASSERT_NE(workload, nullptr);
    const TransferSpec nominal = workload->nominalTransfers();

    os::Machine machine;
    workload->registerKernels(machine.gpu());
    core::BaselineRuntime user(&machine, "u", workload->timingScale());
    ASSERT_TRUE(user.init().isOk());
    machine.clearTrace();
    BaselineApi api(&user);
    ASSERT_TRUE(workload->run(api).isOk());

    // Split recorded transfer bytes by direction.
    std::uint64_t h2d = 0, d2h = 0;
    for (const auto &op : machine.trace().ops()) {
        if (op.kind != sim::OpKind::Transfer)
            continue;
        if (op.resource.unit == sim::ResUnit::DmaHtoD)
            h2d += op.bytes;
        else if (op.resource.unit == sim::ResUnit::DmaDtoH)
            d2h += op.bytes;
    }

    EXPECT_NEAR(double(h2d), double(nominal.htodBytes),
                double(nominal.htodBytes) * 0.02)
        << param.app << " HtoD";
    EXPECT_NEAR(double(d2h), double(nominal.dtohBytes),
                double(nominal.dtohBytes) * param.dtohTolerance +
                    double(mem::PageSize) * workload->timingScale())
        << param.app << " DtoH";
}

INSTANTIATE_TEST_SUITE_P(
    Rodinia, TransferAccountingTest,
    ::testing::Values(AccountingCase{"BP", 0.05},
                      AccountingCase{"BFS", 0.10},
                      AccountingCase{"GS", 0.02},
                      AccountingCase{"HS", 0.02},
                      AccountingCase{"LUD", 0.02},
                      AccountingCase{"NW", 0.02},
                      AccountingCase{"NN", 0.02},
                      AccountingCase{"PF", 4.0},
                      AccountingCase{"SRAD", 0.02}),
    [](const ::testing::TestParamInfo<AccountingCase> &info) {
        return info.param.app;
    });

TEST(TransferAccountingTest, MatrixVolumesMatchTable4)
{
    auto workload = makeMatrixAdd(4096);
    const TransferSpec nominal = workload->nominalTransfers();
    EXPECT_EQ(nominal.htodBytes, 128ull * MiB);
    EXPECT_EQ(nominal.dtohBytes, 64ull * MiB);

    os::Machine machine;
    workload->registerKernels(machine.gpu());
    core::BaselineRuntime user(&machine, "u", workload->timingScale());
    ASSERT_TRUE(user.init().isOk());
    machine.clearTrace();
    BaselineApi api(&user);
    ASSERT_TRUE(workload->run(api).isOk());

    EXPECT_EQ(machine.trace().totalBytes(sim::OpKind::Transfer),
              nominal.htodBytes + nominal.dtohBytes);
}

}  // namespace
}  // namespace hix::workloads
