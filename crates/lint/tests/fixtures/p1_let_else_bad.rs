//! P1 fixture for receivers bound by `let Some(x) = coll.get_mut(..) else`
//! and `if let Some(x) = coll.get_mut(..)`: the binding is typed as the
//! container's element, so the channel and bank methods called through it
//! are reachable from the `access` seed and their panics fire.
struct Bank {
    rows: Vec<u64>,
}
impl Bank {
    fn access(&mut self, row: u64) -> u64 {
        self.rows[0] + row
    }
}
struct Channel {
    banks: Vec<Bank>,
}
impl Channel {
    fn access(&mut self, bank: usize, row: u64) -> u64 {
        let first = self.banks.first().map(|b| b.rows.len()).unwrap();
        if let Some(bank) = self.banks.get_mut(bank) {
            return bank.access(row) + first as u64;
        }
        0
    }
}
struct Model {
    channels: Vec<Channel>,
}
impl MemoryScheme for Model {
    fn access(&mut self, ch: usize, row: u64) -> u64 {
        let Some(channel) = self.channels.get_mut(ch) else {
            return 0;
        };
        channel.access(ch % 8, row)
    }
}
