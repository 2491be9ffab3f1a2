package hyp

import (
	"fmt"

	"ghostspec/internal/arch"
)

// A tiny guest instruction set: enough for guests that compute, touch
// memory (faulting realistically, with restart semantics), and talk to
// the hypervisor — the simulation's equivalent of running a real guest
// image instead of a scripted event queue.
//
// The guest's architectural state is its register file (the saved
// GuestRegs context) with the program counter held in register PCReg;
// load/put context switching therefore preserves the whole machine
// with no extra plumbing, exactly as hardware does.

// PCReg is the register index holding the guest program counter (an
// instruction index).
const PCReg = arch.NumGPRs - 1

// Op is a guest instruction opcode.
type Op uint8

const (
	// OpMovi: reg[Dst] = Imm.
	OpMovi Op = iota
	// OpAdd: reg[Dst] += reg[Src].
	OpAdd
	// OpLoad: reg[Dst] = mem[reg[Src] + Imm] (guest IPA); faults to
	// the host if unmapped, restarting here after the retry.
	OpLoad
	// OpStore: mem[reg[Src] + Imm] = reg[Dst]; may fault likewise.
	OpStore
	// OpBne: if reg[Dst] != reg[Src], branch to instruction Imm.
	OpBne
	// OpShareHost: guest_share_host hypercall for IPA reg[Src] + Imm;
	// errno lands in guest r0 and the run exits to the host.
	OpShareHost
	// OpUnshareHost: the reverse hypercall.
	OpUnshareHost
	// OpYield: exit to the host, continuing here next run.
	OpYield
	// OpHalt: exit to the host forever.
	OpHalt
)

func (o Op) String() string {
	switch o {
	case OpMovi:
		return "movi"
	case OpAdd:
		return "add"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBne:
		return "bne"
	case OpShareHost:
		return "share-host"
	case OpUnshareHost:
		return "unshare-host"
	case OpYield:
		return "yield"
	case OpHalt:
		return "halt"
	}
	return "?"
}

// Insn is one guest instruction.
type Insn struct {
	Op       Op
	Dst, Src int
	Imm      uint64
}

func (i Insn) String() string {
	return fmt.Sprintf("%s r%d, r%d, %#x", i.Op, i.Dst, i.Src, i.Imm)
}

// RunBudget is the maximum instructions one vcpu_run executes before
// the guest is preempted with a yield exit (the scheduler tick).
const RunBudget = 256

// LoadGuestProgram installs a program on a vCPU, replacing any
// scripted event queue. Test-harness machinery (the guest image);
// callers must not race it with a running vCPU.
func (hv *Hypervisor) LoadGuestProgram(handle Handle, idx int, prog []Insn) bool {
	hv.vmsLock.LockAt(loadGuestProgramLockVMs)
	defer hv.vmsLock.Unlock()
	vm := hv.lookupVM(handle)
	if vm == nil || idx < 0 || idx >= vm.NrVCPUs {
		return false
	}
	vm.VCPUs[idx].Program = append([]Insn(nil), prog...)
	return true
}

// runProgram interprets the guest program until an exit event: a
// stage 2 fault (PC not advanced — hardware restart semantics), a
// guest hypercall, a yield/halt, or budget exhaustion. It returns the
// host-visible exit and fires the GuestExit instrumentation with the
// event, exactly like the scripted path — successful loads, stores,
// and arithmetic execute entirely "at EL1" and are invisible to EL2.
func (hv *Hypervisor) runProgram(cpu int, vm *VM, vcpu *VCPU) int64 {
	regs := &hv.CPUs[cpu].GuestRegs
	hostRegs := &hv.CPUs[cpu].HostRegs

	for steps := 0; steps < RunBudget; steps++ {
		pc := regs[PCReg]
		if pc >= uint64(len(vcpu.Program)) {
			// Fell off the end: a halted guest.
			hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, GuestOp{Kind: GuestYield})
			return RunExitYield
		}
		in := vcpu.Program[pc]
		switch in.Op {
		case OpMovi:
			regs[in.Dst] = in.Imm
			regs[PCReg] = pc + 1

		case OpAdd:
			regs[in.Dst] += regs[in.Src]
			regs[PCReg] = pc + 1

		case OpLoad, OpStore:
			ipa := arch.IPA(regs[in.Src] + in.Imm)
			write := in.Op == OpStore
			res, fault := hv.translateGuest(cpu, vm, ipa, arch.Access{Write: write})
			if fault != nil {
				// Stage 2 abort: exit to the host, PC unchanged so
				// the retried run restarts this instruction.
				hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx,
					GuestOp{Kind: GuestAccess, IPA: ipa, Write: write})
				hostRegs[2] = uint64(ipa)
				hostRegs[3] = boolReg(write)
				return RunExitMemAbort
			}
			if write {
				hv.Mem.Write64(res.OutputAddr&^7, regs[in.Dst])
			} else {
				regs[in.Dst] = hv.Mem.Read64(res.OutputAddr &^ 7)
			}
			regs[PCReg] = pc + 1

		case OpBne:
			if regs[in.Dst] != regs[in.Src] {
				regs[PCReg] = in.Imm
			} else {
				regs[PCReg] = pc + 1
			}

		case OpShareHost:
			ipa := arch.IPA(regs[in.Src] + in.Imm)
			hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, GuestOp{Kind: GuestShareHost, IPA: ipa})
			regs[0] = hv.guestShareHost(cpu, vm, ipa).Reg()
			regs[PCReg] = pc + 1
			return RunExitYield

		case OpUnshareHost:
			ipa := arch.IPA(regs[in.Src] + in.Imm)
			hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, GuestOp{Kind: GuestUnshareHost, IPA: ipa})
			regs[0] = hv.guestUnshareHost(cpu, vm, ipa).Reg()
			regs[PCReg] = pc + 1
			return RunExitYield

		case OpYield:
			regs[PCReg] = pc + 1
			hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, GuestOp{Kind: GuestYield})
			return RunExitYield

		case OpHalt:
			// PC stays on the halt: every future run yields here.
			hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, GuestOp{Kind: GuestYield})
			return RunExitYield

		default:
			hv.hypPanic(cpu, "guest program: invalid opcode %d at pc %d", in.Op, pc)
		}
	}
	// Preempted: scheduler tick.
	hv.instr.GuestExit(cpu, vm.Handle, vcpu.Idx, GuestOp{Kind: GuestYield})
	return RunExitYield
}
