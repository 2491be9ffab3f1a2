package hyp

import "ghostspec/internal/analysis/preempt"

// The hypervisor's preemption points: one per lock or TLBI call that a
// deterministic scheduler may park a vCPU at, grouped by the function
// the call is in. Each call passes its point (hv.lockHost(cpu,
// hostShareHypLockHost)), so a crossing needs no stack walk to know
// where it is. ghostlint's preemptcheck holds every declaration to
// its call: used at exactly one call, of the declared kind and
// component, in the declared function, as its ordinal-th such call.
var (
	hostShareHypLockHost   = preempt.At(preempt.KindLockAcquire, "host", "hostShareHyp", 0)
	hostShareHypLockHyp    = preempt.At(preempt.KindLockAcquire, "hyp", "hostShareHyp", 0)
	hostShareHypUnlockHyp  = preempt.At(preempt.KindLockRelease, "hyp", "hostShareHyp", 0)
	hostShareHypUnlockHost = preempt.At(preempt.KindLockRelease, "host", "hostShareHyp", 0)

	hostUnshareHypLockHost   = preempt.At(preempt.KindLockAcquire, "host", "hostUnshareHyp", 0)
	hostUnshareHypLockHyp    = preempt.At(preempt.KindLockAcquire, "hyp", "hostUnshareHyp", 0)
	hostUnshareHypUnlockHyp  = preempt.At(preempt.KindLockRelease, "hyp", "hostUnshareHyp", 0)
	hostUnshareHypUnlockHost = preempt.At(preempt.KindLockRelease, "host", "hostUnshareHyp", 0)

	hostDonateHypLockHost   = preempt.At(preempt.KindLockAcquire, "host", "hostDonateHyp", 0)
	hostDonateHypLockHyp    = preempt.At(preempt.KindLockAcquire, "hyp", "hostDonateHyp", 0)
	hostDonateHypUnlockHyp  = preempt.At(preempt.KindLockRelease, "hyp", "hostDonateHyp", 0)
	hostDonateHypUnlockHost = preempt.At(preempt.KindLockRelease, "host", "hostDonateHyp", 0)

	hostReclaimPageLockVMs    = preempt.At(preempt.KindLockAcquire, "vms", "hostReclaimPage", 0)
	hostReclaimPageLockHost   = preempt.At(preempt.KindLockAcquire, "host", "hostReclaimPage", 0)
	hostReclaimPageUnlockHost = preempt.At(preempt.KindLockRelease, "host", "hostReclaimPage", 0)
	hostReclaimPageUnlockVMs  = preempt.At(preempt.KindLockRelease, "vms", "hostReclaimPage", 0)

	handleHostMemAbortLockHost = preempt.At(preempt.KindLockAcquire, "host", "handleHostMemAbort", 0)

	initVMLockVMs    = preempt.At(preempt.KindLockAcquire, "vms", "initVM", 0)
	initVMLockHost   = preempt.At(preempt.KindLockAcquire, "host", "initVM", 0)
	initVMUnlockHost = preempt.At(preempt.KindLockRelease, "host", "initVM", 0)
	initVMUnlockVMs  = preempt.At(preempt.KindLockRelease, "vms", "initVM", 0)

	initVCPULockVMs = preempt.At(preempt.KindLockAcquire, "vms", "initVCPU", 0)

	teardownVMLockVMs     = preempt.At(preempt.KindLockAcquire, "vms", "teardownVM", 0)
	teardownVMLockGuest   = preempt.At(preempt.KindLockAcquire, "guest", "teardownVM", 0)
	teardownVMTLBI        = preempt.At(preempt.KindTLBI, "", "teardownVM", 0)
	teardownVMUnlockGuest = preempt.At(preempt.KindLockRelease, "guest", "teardownVM", 0)

	vcpuLoadLockVMs = preempt.At(preempt.KindLockAcquire, "vms", "vcpuLoad", 0)

	vcpuPutLockVMs = preempt.At(preempt.KindLockAcquire, "vms", "vcpuPut", 0)

	hostMapGuestLockVMs     = preempt.At(preempt.KindLockAcquire, "vms", "hostMapGuest", 0)
	hostMapGuestUnlockVMs   = preempt.At(preempt.KindLockRelease, "vms", "hostMapGuest", 0)
	hostMapGuestUnlockVMs1  = preempt.At(preempt.KindLockRelease, "vms", "hostMapGuest", 1)
	hostMapGuestLockGuest   = preempt.At(preempt.KindLockAcquire, "guest", "hostMapGuest", 0)
	hostMapGuestLockHost    = preempt.At(preempt.KindLockAcquire, "host", "hostMapGuest", 0)
	hostMapGuestUnlockHost  = preempt.At(preempt.KindLockRelease, "host", "hostMapGuest", 0)
	hostMapGuestUnlockGuest = preempt.At(preempt.KindLockRelease, "guest", "hostMapGuest", 0)

	topupVCPUMemcacheLockVMs    = preempt.At(preempt.KindLockAcquire, "vms", "topupVCPUMemcache", 0)
	topupVCPUMemcacheLockHost   = preempt.At(preempt.KindLockAcquire, "host", "topupVCPUMemcache", 0)
	topupVCPUMemcacheUnlockHost = preempt.At(preempt.KindLockRelease, "host", "topupVCPUMemcache", 0)
	topupVCPUMemcacheUnlockVMs  = preempt.At(preempt.KindLockRelease, "vms", "topupVCPUMemcache", 0)

	queueGuestOpLockVMs = preempt.At(preempt.KindLockAcquire, "vms", "QueueGuestOp", 0)

	vcpuRunLockVMs   = preempt.At(preempt.KindLockAcquire, "vms", "vcpuRun", 0)
	vcpuRunUnlockVMs = preempt.At(preempt.KindLockRelease, "vms", "vcpuRun", 0)

	guestShareHostLockGuest   = preempt.At(preempt.KindLockAcquire, "guest", "guestShareHost", 0)
	guestShareHostLockHost    = preempt.At(preempt.KindLockAcquire, "host", "guestShareHost", 0)
	guestShareHostUnlockHost  = preempt.At(preempt.KindLockRelease, "host", "guestShareHost", 0)
	guestShareHostUnlockGuest = preempt.At(preempt.KindLockRelease, "guest", "guestShareHost", 0)

	guestUnshareHostLockGuest   = preempt.At(preempt.KindLockAcquire, "guest", "guestUnshareHost", 0)
	guestUnshareHostLockHost    = preempt.At(preempt.KindLockAcquire, "host", "guestUnshareHost", 0)
	guestUnshareHostUnlockHost  = preempt.At(preempt.KindLockRelease, "host", "guestUnshareHost", 0)
	guestUnshareHostUnlockGuest = preempt.At(preempt.KindLockRelease, "guest", "guestUnshareHost", 0)

	loadGuestProgramLockVMs = preempt.At(preempt.KindLockAcquire, "vms", "LoadGuestProgram", 0)

	restoreTLBI = preempt.At(preempt.KindTLBI, "", "restore", 0)

	// The release helpers' own points, crossed by deferred releases
	// (see unlockHost).
	unlockHostOwn = preempt.At(preempt.KindLockRelease, "host", "unlockHost", 0)
	unlockVMsOwn  = preempt.At(preempt.KindLockRelease, "vms", "unlockVMs", 0)
)
