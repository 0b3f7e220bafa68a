//! A1 fixture for setup-only constructors: allocations reachable from the
//! `access` seed fire; a constructor that only setup code calls stays
//! clean even though it calls `Vec::new`.
struct Ctl;
impl MemoryScheme for Ctl {
    fn access(&mut self, n: usize) -> usize {
        grow(n)
    }
}

fn grow(n: usize) -> usize {
    let v = vec![0u8; n];
    v.len()
}

fn with_capacity(n: usize) -> Vec<u8> {
    let mut v = Vec::new();
    v.reserve(n);
    v
}
