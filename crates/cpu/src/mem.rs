//! Simulated memory: a global data segment plus a downward-growing stack.
//!
//! Addresses match the layout constants in `ferrum-mir`'s interpreter so
//! that pointer values printed by either executor would agree.  Memory is
//! byte-addressable and little-endian; accesses outside the two mapped
//! regions fault.

use ferrum_asm::reg::Width;

/// Base address of the global data segment.
pub const GLOBALS_BASE: u64 = 0x0001_0000;
/// Top of the stack (exclusive); the stack grows downward from here.
pub const STACK_TOP: u64 = 0x0800_0000;
/// Stack size in bytes.
pub const STACK_SIZE: u64 = 512 * 1024;

/// Byte-addressable little-endian memory.
#[derive(Debug, Clone)]
pub struct Memory {
    globals: Vec<u8>,
    stack: Vec<u8>,
    /// Lowest stack offset ever written — everything below is still the
    /// all-zero initial image, so checkpoints keep, and compares walk,
    /// only the touched suffix.  Monotonically decreasing except on
    /// [`Memory::restore`], which takes the checkpoint's mark.
    stack_low: usize,
}

/// A [`Memory`]'s contents as a checkpoint holds them: the globals and
/// the stack bytes from the low-water mark to the stack top.
#[derive(Debug, Clone)]
pub(crate) struct MemCheckpoint {
    globals: Vec<u8>,
    /// `stack[stack_low..]` of the captured memory.
    stack: Vec<u8>,
}

impl MemCheckpoint {
    /// The captured memory's low-water mark.
    pub(crate) fn stack_low(&self) -> usize {
        STACK_SIZE as usize - self.stack.len()
    }
}

/// A faulting access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFault {
    /// The offending address.
    pub addr: u64,
}

impl Memory {
    /// Creates memory with the given global segment image.
    pub fn new(globals: Vec<u8>) -> Memory {
        Memory {
            globals,
            stack: vec![0; STACK_SIZE as usize],
            stack_low: STACK_SIZE as usize,
        }
    }

    /// Captures the globals and the stack suffix above the low-water
    /// mark: everything below it is the all-zero initial image, so a
    /// checkpoint costs the stack in use, not the 512 KiB stack.
    pub(crate) fn checkpoint(&self) -> MemCheckpoint {
        MemCheckpoint {
            globals: self.globals.clone(),
            stack: self.stack[self.stack_low..].to_vec(),
        }
    }

    /// Reinstates `cp` in place, reusing this memory's buffers: the
    /// bytes this memory touched below the checkpoint's low-water mark
    /// are zeroed, the checkpoint's suffix is copied over the rest.
    pub(crate) fn restore(&mut self, cp: &MemCheckpoint) {
        self.globals.clone_from(&cp.globals);
        let low = cp.stack_low();
        if self.stack_low < low {
            self.stack[self.stack_low..low].fill(0);
        }
        self.stack[low..].copy_from_slice(&cp.stack);
        self.stack_low = low;
    }

    /// Whether this memory holds exactly `cp`'s contents.  Below its own
    /// low-water mark each side is zero, so between the two marks the
    /// side that touched more must hold zeros, and above both the
    /// suffixes must agree.
    pub(crate) fn matches(&self, cp: &MemCheckpoint) -> bool {
        if self.globals != cp.globals {
            return false;
        }
        let (ours, low) = (&self.stack[self.stack_low..], cp.stack_low());
        let (ours, theirs) = if self.stack_low < low {
            let (extra, ours) = ours.split_at(low - self.stack_low);
            if extra.iter().any(|&b| b != 0) {
                return false;
            }
            (ours, &cp.stack[..])
        } else {
            let (extra, theirs) = cp.stack.split_at(self.stack_low - low);
            if extra.iter().any(|&b| b != 0) {
                return false;
            }
            (ours, theirs)
        };
        ours == theirs
    }

    /// Size of the global segment in bytes.
    pub fn globals_len(&self) -> u64 {
        self.globals.len() as u64
    }

    fn locate(&self, addr: u64, len: u64) -> Result<(bool, usize), AccessFault> {
        let gend = GLOBALS_BASE + self.globals.len() as u64;
        if addr >= GLOBALS_BASE && addr.saturating_add(len) <= gend {
            return Ok((true, (addr - GLOBALS_BASE) as usize));
        }
        let sbase = STACK_TOP - STACK_SIZE;
        if addr >= sbase && addr.saturating_add(len) <= STACK_TOP {
            return Ok((false, (addr - sbase) as usize));
        }
        Err(AccessFault { addr })
    }

    /// Loads `w.bytes()` little-endian bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped regions.
    pub fn load(&self, addr: u64, w: Width) -> Result<u64, AccessFault> {
        let n = w.bytes();
        let (is_g, off) = self.locate(addr, n)?;
        let buf = if is_g { &self.globals } else { &self.stack };
        let mut v = 0u64;
        for i in (0..n as usize).rev() {
            v = (v << 8) | u64::from(buf[off + i]);
        }
        Ok(v)
    }

    /// Word-at-a-time load used by the decoded engine's hot loop.
    ///
    /// Same mapping rules and little-endian layout as [`Memory::load`]
    /// (the byte-loop form stays as the reference implementation the
    /// interpreter executes), but reads whole words via
    /// `from_le_bytes`.
    pub(crate) fn load_w(&self, addr: u64, w: Width) -> Result<u64, AccessFault> {
        let n = w.bytes();
        let (is_g, off) = self.locate(addr, n)?;
        let buf = if is_g { &self.globals } else { &self.stack };
        Ok(match w {
            Width::W8 => u64::from(buf[off]),
            Width::W16 => u64::from(u16::from_le_bytes([buf[off], buf[off + 1]])),
            Width::W32 => {
                let mut b = [0u8; 4];
                b.copy_from_slice(&buf[off..off + 4]);
                u64::from(u32::from_le_bytes(b))
            }
            Width::W64 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[off..off + 8]);
                u64::from_le_bytes(b)
            }
        })
    }

    /// Word-at-a-time store used by the decoded engine's hot loop.
    ///
    /// Byte-identical effect to [`Memory::store`].
    pub(crate) fn store_w(&mut self, addr: u64, w: Width, value: u64) -> Result<(), AccessFault> {
        let n = w.bytes();
        let (is_g, off) = self.locate(addr, n)?;
        let buf = if is_g {
            &mut self.globals
        } else {
            self.stack_low = self.stack_low.min(off);
            &mut self.stack
        };
        match w {
            Width::W8 => buf[off] = value as u8,
            Width::W16 => buf[off..off + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            Width::W32 => buf[off..off + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            Width::W64 => buf[off..off + 8].copy_from_slice(&value.to_le_bytes()),
        }
        Ok(())
    }

    /// Stores the low `w.bytes()` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Faults when the access leaves the mapped regions.
    pub fn store(&mut self, addr: u64, w: Width, value: u64) -> Result<(), AccessFault> {
        let n = w.bytes();
        let (is_g, off) = self.locate(addr, n)?;
        let buf = if is_g {
            &mut self.globals
        } else {
            self.stack_low = self.stack_low.min(off);
            &mut self.stack
        };
        for i in 0..n as usize {
            buf[off + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }
}

/// Builds the global segment image from data objects, returning the
/// image and each object's base address in declaration order.
pub fn build_globals(data: &[ferrum_asm::program::DataObject]) -> (Vec<u8>, Vec<(String, u64)>) {
    let mut image = Vec::new();
    let mut bases = Vec::new();
    for d in data {
        bases.push((d.name.clone(), GLOBALS_BASE + image.len() as u64));
        for w in &d.words {
            image.extend_from_slice(&w.to_le_bytes());
        }
    }
    (image, bases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::program::DataObject;

    #[test]
    fn round_trip_at_all_widths() {
        let mut m = Memory::new(vec![0; 64]);
        for (w, val) in [
            (Width::W8, 0xabu64),
            (Width::W16, 0xbeefu64),
            (Width::W32, 0xdead_beefu64),
            (Width::W64, 0x0123_4567_89ab_cdefu64),
        ] {
            m.store(GLOBALS_BASE + 8, w, val).unwrap();
            assert_eq!(m.load(GLOBALS_BASE + 8, w).unwrap(), val);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(vec![0; 16]);
        m.store(GLOBALS_BASE, Width::W64, 0x0807_0605_0403_0201)
            .unwrap();
        assert_eq!(m.load(GLOBALS_BASE, Width::W8).unwrap(), 0x01);
        assert_eq!(m.load(GLOBALS_BASE + 7, Width::W8).unwrap(), 0x08);
        assert_eq!(m.load(GLOBALS_BASE, Width::W32).unwrap(), 0x0403_0201);
    }

    #[test]
    fn stack_region_is_mapped() {
        let mut m = Memory::new(vec![]);
        let addr = STACK_TOP - 8;
        m.store(addr, Width::W64, 77).unwrap();
        assert_eq!(m.load(addr, Width::W64).unwrap(), 77);
        let low = STACK_TOP - STACK_SIZE;
        m.store(low, Width::W64, 1).unwrap();
        assert!(m.store(low - 8, Width::W64, 1).is_err());
    }

    #[test]
    fn unmapped_access_faults() {
        let m = Memory::new(vec![0; 8]);
        assert!(m.load(0, Width::W64).is_err());
        assert!(m.load(GLOBALS_BASE + 8, Width::W64).is_err()); // past end
        assert!(m.load(GLOBALS_BASE + 4, Width::W64).is_err()); // straddles end
        assert_eq!(m.load(GLOBALS_BASE, Width::W64).unwrap(), 0);
    }

    #[test]
    fn unaligned_access_is_allowed_like_x86() {
        let mut m = Memory::new(vec![0; 32]);
        m.store(GLOBALS_BASE + 3, Width::W32, 0xaabb_ccdd).unwrap();
        assert_eq!(m.load(GLOBALS_BASE + 3, Width::W32).unwrap(), 0xaabb_ccdd);
    }

    #[test]
    fn word_fast_paths_agree_with_byte_loops() {
        let mut a = Memory::new(vec![0; 64]);
        let mut b = Memory::new(vec![0; 64]);
        for (w, val) in [
            (Width::W8, 0x5au64),
            (Width::W16, 0xbeefu64),
            (Width::W32, 0xdead_beefu64),
            (Width::W64, 0x0123_4567_89ab_cdefu64),
        ] {
            for addr in [GLOBALS_BASE + 3, STACK_TOP - 16] {
                a.store(addr, w, val).unwrap();
                b.store_w(addr, w, val).unwrap();
                assert_eq!(a.load(addr, w), b.load_w(addr, w));
                assert_eq!(a.load(addr, Width::W64), b.load(addr, Width::W64));
            }
        }
        // Faulting accesses fault identically.
        assert_eq!(a.load(0, Width::W64), a.load_w(0, Width::W64));
        assert_eq!(
            b.store(GLOBALS_BASE + 60, Width::W64, 1),
            b.store_w(GLOBALS_BASE + 60, Width::W64, 1)
        );
    }

    #[test]
    fn a_checkpoint_holds_only_the_touched_stack_suffix() {
        let mut m = Memory::new(vec![0; 16]);
        assert!(m.checkpoint().stack.is_empty());
        m.store(STACK_TOP - 8, Width::W64, 1).unwrap();
        m.store(STACK_TOP - 40, Width::W8, 2).unwrap();
        let cp = m.checkpoint();
        assert_eq!(cp.stack.len(), STACK_SIZE as usize - m.stack_low);
        assert_eq!(cp.stack.len(), 40);
        assert_eq!(cp.stack_low(), m.stack_low);
        assert!(m.matches(&cp));
    }

    #[test]
    fn marks_differ_yet_memories_match_exactly_when_the_extra_bytes_are_zero() {
        let mut shallow = Memory::new(vec![0; 16]);
        shallow.store(STACK_TOP - 8, Width::W64, 7).unwrap();
        // A deeper mark over zeros: same contents.
        let mut deep = shallow.clone();
        deep.store(STACK_TOP - 64, Width::W64, 0).unwrap();
        assert!(deep.stack_low < shallow.stack_low);
        assert!(deep.matches(&shallow.checkpoint()));
        assert!(shallow.matches(&deep.checkpoint()));
        // One nonzero byte between the marks, on either side: different.
        let mut dirty = deep.clone();
        dirty.store(STACK_TOP - 60, Width::W8, 1).unwrap();
        assert!(!dirty.matches(&shallow.checkpoint()));
        assert!(!shallow.matches(&dirty.checkpoint()));
        // Above both marks the suffixes are compared byte for byte.
        let mut other = deep.clone();
        other.store(STACK_TOP - 8, Width::W64, 8).unwrap();
        assert!(!other.matches(&deep.checkpoint()));
        let mut globals = deep.clone();
        globals.store(GLOBALS_BASE, Width::W8, 1).unwrap();
        assert!(!globals.matches(&deep.checkpoint()));
    }

    #[test]
    fn restore_zeroes_what_was_touched_below_the_checkpoint_mark() {
        let mut m = Memory::new(vec![0; 16]);
        m.store(STACK_TOP - 8, Width::W64, 5).unwrap();
        let cp = m.checkpoint();
        m.store(STACK_TOP - 512, Width::W64, u64::MAX).unwrap();
        m.store(STACK_TOP - 8, Width::W64, 6).unwrap();
        m.store(GLOBALS_BASE, Width::W64, 9).unwrap();
        m.restore(&cp);
        assert_eq!(m.stack_low, cp.stack_low());
        assert_eq!(m.load(STACK_TOP - 512, Width::W64).unwrap(), 0);
        assert_eq!(m.load(STACK_TOP - 8, Width::W64).unwrap(), 5);
        assert_eq!(m.load(GLOBALS_BASE, Width::W64).unwrap(), 0);
        assert!(m.stack.iter().take(m.stack_low).all(|&b| b == 0));
        assert!(m.matches(&cp));
    }

    #[test]
    fn globals_image_layout() {
        let data = vec![
            DataObject::new("a", vec![1, 2]),
            DataObject::new("b", vec![-1]),
        ];
        let (image, bases) = build_globals(&data);
        assert_eq!(image.len(), 24);
        assert_eq!(bases[0], ("a".into(), GLOBALS_BASE));
        assert_eq!(bases[1], ("b".into(), GLOBALS_BASE + 16));
        let m = Memory::new(image);
        assert_eq!(m.load(GLOBALS_BASE + 8, Width::W64).unwrap(), 2);
        assert_eq!(m.load(GLOBALS_BASE + 16, Width::W64).unwrap(), u64::MAX);
    }
}
