#include "hix/baseline_runtime.h"

namespace hix::core
{

BaselineRuntime::BaselineRuntime(os::Machine *machine, std::string name,
                                 std::uint64_t timing_scale,
                                 std::uint16_t cpu_index,
                                 BaselineRuntime *mps_leader,
                                 GpuContextId ctx_base, int gpu_index)
    : machine_(machine),
      name_(std::move(name)),
      cpu_{sim::ResUnit::UserCpu, cpu_index},
      mps_leader_(mps_leader),
      gpu_index_(gpu_index)
{
    pid_ = machine_->os().createProcess(name_);
    actor_ = machine_->nextActor();

    if (mps_leader_) {
        driver_ = mps_leader_->driver_;
        gpu_index_ = mps_leader_->gpu_index_;
        return;
    }
    const auto &gpu_config = machine_->gpuAt(gpu_index_).config();
    driver::GdevConfig cfg;
    cfg.timing = machine_->config().timing;
    cfg.scrubOnFree = false;  // stock Gdev: no cleansing on free
    cfg.timingScale = timing_scale;
    cfg.actor = actor_;
    cfg.cpuResource = cpu_;
    cfg.sharedVram = &machine_->vramAt(gpu_index_);
    cfg.ctxBase = ctx_base;
    cfg.deviceIndex = static_cast<std::uint16_t>(gpu_index_);
    driver_ = std::make_shared<driver::GdevDriver>(
        &machine_->gpuAt(gpu_index_),
        std::make_unique<driver::HostMmioPort>(
            &machine_->rootComplex(), gpu_config.barBase(0),
            gpu_config.barBase(1)),
        &machine_->recorder(), cfg);
}

Status
BaselineRuntime::precreateContext()
{
    if (initialized_ || ctx_precreated_)
        return errFailedPrecondition("context already exists");
    if (mps_leader_)
        return errFailedPrecondition("MPS follower joins leader ctx");
    driver_->setClient(actor_, cpu_);
    auto ctx = driver_->createContext();
    if (!ctx.isOk())
        return ctx.status();
    ctx_ = *ctx;
    ctx_precreated_ = true;
    return Status::ok();
}

Status
BaselineRuntime::init()
{
    if (initialized_)
        return errFailedPrecondition("already initialized");
    driver_->setClient(actor_, cpu_);
    machine_->recorder().record(
        actor_, cpu_, machine_->config().timing.gdevTaskInit,
        sim::OpKind::Init, 0, "gdev_task_init");
    if (mps_leader_) {
        // Pre-Volta MPS: join the leader's (single) GPU context.
        ctx_ = mps_leader_->ctx_;
    } else if (!ctx_precreated_) {
        auto ctx = driver_->createContext();
        if (!ctx.isOk())
            return ctx.status();
        ctx_ = *ctx;
    }
    initialized_ = true;
    return Status::ok();
}

Status
BaselineRuntime::ensureHostBuffer(std::uint64_t size)
{
    if (host_buf_.size >= size)
        return Status::ok();
    HIX_ASSIGN_OR_RETURN(os::DmaBuffer buf,
                         machine_->os().allocDmaBuffer(pid_, size));
    host_buf_ = buf;
    return Status::ok();
}

Result<Addr>
BaselineRuntime::memAlloc(std::uint64_t size)
{
    driver_->setClient(actor_, cpu_);
    return driver_->memAlloc(ctx_, size);
}

Status
BaselineRuntime::memFree(Addr gpu_va)
{
    driver_->setClient(actor_, cpu_);
    return driver_->memFree(ctx_, gpu_va);
}

Status
BaselineRuntime::memcpyHtoD(Addr dst_gpu_va, const Bytes &data)
{
    HIX_RETURN_IF_ERROR(ensureHostBuffer(data.size()));
    HIX_RETURN_IF_ERROR(machine_->ram().writeAt(
        host_buf_.paddr, data.data(), data.size()));
    // Zero-duration marker between the plaintext landing in the
    // pinned buffer and the DMA consuming it: the window a
    // mid-transfer attack strikes in (testing/scenario.h hooks).
    machine_->recorder().record(actor_, cpu_, 0, sim::OpKind::Control,
                                0, "h2d_stage");
    driver_->setClient(actor_, cpu_);
    auto r = driver_->memcpyHtoD(ctx_, host_buf_.paddr, dst_gpu_va,
                                 data.size());
    if (!r.isOk())
        return r.status();
    return Status::ok();
}

Result<Bytes>
BaselineRuntime::memcpyDtoH(Addr src_gpu_va, std::uint64_t len)
{
    HIX_RETURN_IF_ERROR(ensureHostBuffer(len));
    driver_->setClient(actor_, cpu_);
    auto r = driver_->memcpyDtoH(ctx_, src_gpu_va, host_buf_.paddr, len);
    if (!r.isOk())
        return r.status();
    // Zero-duration marker between the DMA filling the pinned buffer
    // and the application reading it out (mid-transfer attack hook).
    machine_->recorder().record(actor_, cpu_, 0, sim::OpKind::Control,
                                0, "d2h_drain");
    Bytes out(len);
    HIX_RETURN_IF_ERROR(
        machine_->ram().readAt(host_buf_.paddr, out.data(), len));
    return out;
}

Result<gpu::KernelId>
BaselineRuntime::loadModule(const std::string &kernel_name)
{
    return driver_->loadModule(kernel_name);
}

Status
BaselineRuntime::launchKernel(gpu::KernelId kernel,
                              const gpu::KernelArgs &args)
{
    driver_->setClient(actor_, cpu_);
    auto r = driver_->launchKernel(ctx_, kernel, args);
    if (!r.isOk())
        return r.status();
    return Status::ok();
}

Status
BaselineRuntime::close()
{
    if (!initialized_)
        return errFailedPrecondition("not initialized");
    driver_->setClient(actor_, cpu_);
    if (!mps_leader_)
        HIX_RETURN_IF_ERROR(driver_->destroyContext(ctx_));
    initialized_ = false;
    return Status::ok();
}

}  // namespace hix::core
