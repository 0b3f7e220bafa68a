//! A1 fixture for loop variables bound by a nested tuple pattern: `lane`
//! comes out of `((i, lane), at)` over an `enumerate().zip(…)` chain, so
//! `lane.take` resolves to `Lane::take` and its allocation is reachable
//! from the `access` seed.
struct Lane;
impl Lane {
    fn take(&self, n: usize) -> usize {
        let v = vec![0u8; n];
        v.len()
    }
}
struct Ctl {
    lanes: Vec<Lane>,
}
impl MemoryScheme for Ctl {
    fn access(&mut self, starts: &[usize]) -> usize {
        let lanes: &[Lane] = &self.lanes;
        let mut total = 0;
        for ((i, lane), at) in lanes.iter().enumerate().zip(starts.iter()) {
            total += lane.take(i + at);
        }
        total
    }
}
