//! The processor's environment: memory, devices, and register overrides.
//!
//! The CPU core is deliberately ignorant of what it is attached to. Each
//! [`crate::Cpu::step`] receives an [`Env`] that provides memory, may alias
//! general-purpose registers (the register-mapped network interface of
//! §3.3), and executes network-interface commands. `tcni-sim` supplies the
//! real implementations; [`MemEnv`] here is a plain memory for unit tests
//! and compute-only programs.

use tcni_isa::{NiCmd, Reg};

use crate::timing::AccessKind;

/// Why an environment access could not complete this cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvFault {
    /// The access must be retried next cycle (e.g. a SEND under the stall
    /// policy with a full output queue, §2.1.1). The CPU burns a cycle and
    /// re-executes the instruction; no side effects may have occurred.
    Stall,
    /// The access is architecturally invalid; the CPU enters the faulted
    /// state.
    Fault {
        /// Human-readable reason, surfaced in [`crate::CpuState::Faulted`].
        reason: String,
    },
}

impl EnvFault {
    /// Convenience constructor for a fatal fault.
    pub fn fault(reason: impl Into<String>) -> EnvFault {
        EnvFault::Fault {
            reason: reason.into(),
        }
    }
}

/// The world as seen by the processor core.
pub trait Env {
    /// Reads a word of memory (or a memory-mapped device register). May
    /// perform device side effects (Figure 9 commands ride on addresses).
    fn mem_read(&mut self, addr: u32) -> Result<u32, EnvFault>;

    /// Writes a word of memory (or a memory-mapped device register).
    fn mem_write(&mut self, addr: u32, value: u32) -> Result<(), EnvFault>;

    /// Classifies an address for load-latency purposes.
    fn access_kind(&self, addr: u32) -> AccessKind;

    /// If the register is aliased by a device (register-mapped NI), returns
    /// its current value; `None` for ordinary registers.
    fn reg_read_override(&mut self, reg: Reg) -> Option<u32> {
        let _ = reg;
        None
    }

    /// If the register is aliased by a device, consumes the write and
    /// returns `true`; `false` leaves the write to the ordinary register
    /// file.
    ///
    /// # Errors
    ///
    /// May fault (e.g. a write to a read-only interface register).
    fn reg_write_override(&mut self, reg: Reg, value: u32) -> Result<bool, EnvFault> {
        let _ = (reg, value);
        Ok(false)
    }

    /// Whether the NI command bits of an instruction could execute right now
    /// without stalling. The core consults this *before* applying any of the
    /// instruction's side effects, so a SEND waiting on a full output queue
    /// stalls the whole instruction cleanly (§2.1.1).
    fn ni_ready(&mut self, cmd: NiCmd) -> bool {
        let _ = cmd;
        true
    }

    /// Executes the NI command bits of a triadic instruction (register-mapped
    /// implementation only; memory-mapped environments fault).
    ///
    /// # Errors
    ///
    /// `EnvFault::Stall` when a SEND must wait for queue space.
    fn exec_ni(&mut self, cmd: NiCmd) -> Result<(), EnvFault> {
        if cmd.is_noop() {
            Ok(())
        } else {
            Err(EnvFault::fault(
                "NI instruction bits are not supported by this environment",
            ))
        }
    }
}

/// A plain bounds-checked word memory, byte-addressed.
///
/// The word store is allocated on the first write: a machine of many nodes
/// whose programs never touch memory (the synthetic load generators) pays
/// nothing for it, and until then every word reads 0, exactly as a zeroed
/// store would.
///
/// # Example
///
/// ```
/// use tcni_cpu::MemEnv;
/// use tcni_cpu::Env;
///
/// let mut m = MemEnv::new(1024);
/// m.mem_write(16, 42).unwrap();
/// assert_eq!(m.mem_read(16).unwrap(), 42);
/// assert!(m.mem_read(2048).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MemEnv {
    /// Capacity in words.
    len: usize,
    /// The words, or empty while nothing has been written.
    words: Vec<u32>,
}

impl MemEnv {
    /// Creates a zeroed memory of `bytes` bytes (rounded down to words).
    pub fn new(bytes: usize) -> MemEnv {
        MemEnv {
            len: bytes / 4,
            words: Vec::new(),
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.len * 4
    }

    /// Whether the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Direct word access for test setup (byte address).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the memory.
    pub fn poke(&mut self, addr: u32, value: u32) {
        let i = (addr / 4) as usize;
        assert!(i < self.len, "poke beyond memory at {addr:#x}");
        self.store()[i] = value;
    }

    /// Direct word read for assertions (byte address).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the memory.
    pub fn peek(&self, addr: u32) -> u32 {
        let i = (addr / 4) as usize;
        assert!(i < self.len, "peek beyond memory at {addr:#x}");
        self.word(i)
    }

    /// Word `i` (in range), 0 while the store is unallocated.
    fn word(&self, i: usize) -> u32 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The word store, allocated (zeroed) on first use.
    fn store(&mut self) -> &mut [u32] {
        if self.words.is_empty() {
            self.words = vec![0; self.len];
        }
        &mut self.words
    }

    fn index(&self, addr: u32) -> Result<usize, EnvFault> {
        if !addr.is_multiple_of(4) {
            return Err(EnvFault::fault(format!("misaligned access at {addr:#x}")));
        }
        let i = (addr / 4) as usize;
        if i >= self.len {
            return Err(EnvFault::fault(format!(
                "access beyond memory at {addr:#x}"
            )));
        }
        Ok(i)
    }
}

impl Env for MemEnv {
    fn mem_read(&mut self, addr: u32) -> Result<u32, EnvFault> {
        let i = self.index(addr)?;
        Ok(self.word(i))
    }

    fn mem_write(&mut self, addr: u32, value: u32) -> Result<(), EnvFault> {
        let i = self.index(addr)?;
        self.store()[i] = value;
        Ok(())
    }

    fn access_kind(&self, _addr: u32) -> AccessKind {
        AccessKind::Local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misaligned_faults() {
        let mut m = MemEnv::new(64);
        assert!(m.mem_read(2).is_err());
        assert!(m.mem_write(5, 1).is_err());
    }

    #[test]
    fn untouched_words_read_zero_before_any_write() {
        let mut m = MemEnv::new(64);
        assert_eq!(m.len(), 64);
        assert!(!m.is_empty());
        assert_eq!(m.mem_read(0).unwrap(), 0);
        assert_eq!(m.mem_read(60).unwrap(), 0);
        assert_eq!(m.peek(32), 0);
        m.mem_write(8, 7).unwrap();
        assert_eq!(m.mem_read(8).unwrap(), 7);
        assert_eq!(m.mem_read(12).unwrap(), 0, "neighbours of a write stay 0");
        assert_eq!(m.len(), 64, "allocation does not change the size");
    }

    #[test]
    fn peek_and_poke_share_the_store_with_reads_and_writes() {
        let mut m = MemEnv::new(32);
        m.poke(4, 0xDEAD_BEEF);
        assert_eq!(m.mem_read(4).unwrap(), 0xDEAD_BEEF);
        m.mem_write(28, 5).unwrap();
        assert_eq!(m.peek(28), 5);
        assert_eq!(m.peek(0), 0);
    }

    #[test]
    fn out_of_range_accesses_fault_allocated_or_not() {
        for written in [false, true] {
            let mut m = MemEnv::new(16);
            if written {
                m.mem_write(0, 1).unwrap();
            }
            assert!(m.mem_read(16).is_err(), "written={written}");
            assert!(m.mem_write(16, 1).is_err(), "written={written}");
            assert!(m.mem_read(0xFFFF_FFFC).is_err(), "written={written}");
            assert!(m.mem_read(6).is_err(), "misaligned, written={written}");
        }
        let empty = MemEnv::new(3);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let caught = std::panic::catch_unwind(|| MemEnv::new(16).peek(16));
        assert!(caught.is_err(), "peek beyond memory panics");
        let caught = std::panic::catch_unwind(|| MemEnv::new(16).poke(16, 1));
        assert!(caught.is_err(), "poke beyond memory panics");
    }

    #[test]
    fn default_overrides_do_nothing() {
        let mut m = MemEnv::new(64);
        assert_eq!(m.reg_read_override(Reg::R20), None);
        assert!(!m.reg_write_override(Reg::R20, 9).unwrap());
        assert!(m.exec_ni(NiCmd::NONE).is_ok());
        assert!(m.exec_ni(NiCmd::next()).is_err());
    }
}
