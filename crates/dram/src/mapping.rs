//! Device-local address → (channel, rank, bank, row) mapping.
//!
//! Channels interleave at 64 B granularity so that a 2 KB large block spreads
//! across all channels (maximizing bandwidth for block migrations), while
//! each channel's 256 B share of the block stays within a single row
//! (preserving row-buffer locality). Within a channel, consecutive rows
//! rotate across banks and ranks for bank-level parallelism.

use crate::config::DramConfig;

/// Interleave granularity across channels, in bytes. Matches the subblock
/// size so a demand access touches exactly one channel.
pub const CHANNEL_INTERLEAVE_BYTES: u64 = 64;

/// A decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Bank within the rank.
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
}

impl Location {
    /// Flat bank index within the owning channel (`rank * banks + bank`).
    pub fn bank_in_channel(&self, cfg: &DramConfig) -> usize {
        (self.rank * cfg.banks + self.bank) as usize
    }
}

/// Maps device-local byte addresses to DRAM locations for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMapper {
    channels: u64,
    ranks: u64,
    banks: u64,
    row_bytes: u64,
    /// Set when every dimension is a power of two (true of all real DRAM
    /// shapes): [`decode`] then runs on shifts and masks. Decode is invoked
    /// for every DRAM transfer, so the division-free path matters.
    ///
    /// [`decode`]: AddressMapper::decode
    shifts: Option<Shifts>,
}

/// Precomputed shift amounts for the power-of-two decode path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shifts {
    channel: u32,
    row: u32,
    bank: u32,
    rank: u32,
}

impl AddressMapper {
    /// Creates a mapper for the given device configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        let channels = u64::from(cfg.channels);
        let ranks = u64::from(cfg.ranks);
        let banks = u64::from(cfg.banks);
        let row_bytes = cfg.row_bytes;
        let shifts = ([channels, ranks, banks, row_bytes]
            .iter()
            .all(|d| d.is_power_of_two()))
        .then(|| Shifts {
            channel: channels.trailing_zeros(),
            row: row_bytes.trailing_zeros(),
            bank: banks.trailing_zeros(),
            rank: ranks.trailing_zeros(),
        });
        Self {
            channels,
            ranks,
            banks,
            row_bytes,
            shifts,
        }
    }

    /// The channel of a device-local byte address: all a bus-only beat
    /// needs, since it never reaches a bank.
    pub(crate) const fn channel(&self, device_addr: u64) -> u32 {
        let chunk = device_addr / CHANNEL_INTERLEAVE_BYTES;
        (match self.shifts {
            Some(_) => chunk & (self.channels - 1),
            None => chunk % self.channels,
        }) as u32
    }

    /// Decodes a device-local byte address.
    pub fn decode(&self, device_addr: u64) -> Location {
        let channel = self.channel(device_addr);
        if let Some(s) = self.shifts {
            let chunk = device_addr / CHANNEL_INTERLEAVE_BYTES;
            // Channel-local compressed byte address: drop the channel bits.
            let local = ((chunk >> s.channel) * CHANNEL_INTERLEAVE_BYTES)
                + (device_addr % CHANNEL_INTERLEAVE_BYTES);
            let global_row = local >> s.row;
            let bank = global_row & (self.banks - 1);
            let rank = (global_row >> s.bank) & (self.ranks - 1);
            let row = global_row >> (s.bank + s.rank);
            return Location {
                channel,
                rank: rank as u32,
                bank: bank as u32,
                row,
            };
        }
        let chunk = device_addr / CHANNEL_INTERLEAVE_BYTES;
        // Channel-local compressed byte address: drop the channel bits.
        let local = (chunk / self.channels) * CHANNEL_INTERLEAVE_BYTES
            + device_addr % CHANNEL_INTERLEAVE_BYTES;
        let global_row = local / self.row_bytes;
        let bank = global_row % self.banks;
        let rank = (global_row / self.banks) % self.ranks;
        let row = global_row / (self.banks * self.ranks);
        Location {
            channel,
            rank: rank as u32,
            bank: bank as u32,
            row,
        }
    }
}

/// Walks the locations of consecutive 64 B chunks with one full [`decode`]
/// up front and pure increments afterwards.
///
/// Consecutive chunks rotate through the channels; the channel-local address
/// (and with it bank/rank/row) advances only when the rotation wraps, and
/// since rows are whole multiples of the interleave granularity the row
/// fields change only when that advance crosses a row boundary. A 32-beat
/// block transfer therefore performs one division-heavy decode instead of 32.
///
/// [`decode`]: AddressMapper::decode
#[derive(Debug, Clone)]
pub struct ChunkWalker {
    mapper: AddressMapper,
    loc: Location,
    /// Index of the current chunk within its channel (`chunk / channels`).
    local_chunk: u64,
    /// Channel-local chunks per DRAM row (`row_bytes / 64`).
    chunks_per_row: u64,
}

impl ChunkWalker {
    /// Starts a walk at `device_addr` (any byte within the first chunk).
    pub fn new(mapper: &AddressMapper, device_addr: u64) -> Self {
        let chunk = device_addr / CHANNEL_INTERLEAVE_BYTES;
        Self {
            mapper: *mapper,
            loc: mapper.decode(device_addr),
            local_chunk: match mapper.shifts {
                Some(s) => chunk >> s.channel,
                None => chunk / mapper.channels,
            },
            chunks_per_row: mapper.row_bytes / CHANNEL_INTERLEAVE_BYTES,
        }
    }

    /// The location of the current chunk.
    pub const fn location(&self) -> Location {
        self.loc
    }

    /// Advances to the next consecutive 64 B chunk.
    pub fn advance(&mut self) {
        self.loc.channel += 1;
        if u64::from(self.loc.channel) == self.mapper.channels {
            self.loc.channel = 0;
            self.local_chunk += 1;
            if self.local_chunk.is_multiple_of(self.chunks_per_row) {
                let global_row = self.local_chunk / self.chunks_per_row;
                self.loc.bank = (global_row % self.mapper.banks) as u32;
                self.loc.rank = ((global_row / self.mapper.banks) % self.mapper.ranks) as u32;
                self.loc.row = global_row / (self.mapper.banks * self.mapper.ranks);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn mapper() -> (AddressMapper, DramConfig) {
        let cfg = DramConfig::hbm2();
        (AddressMapper::new(&cfg), cfg)
    }

    #[test]
    fn consecutive_subblocks_rotate_channels() {
        let (m, _) = mapper();
        let locs: Vec<u32> = (0..8).map(|i| m.decode(i * 64).channel).collect();
        assert_eq!(locs, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Wraps around.
        assert_eq!(m.decode(8 * 64).channel, 0);
    }

    #[test]
    fn same_chunk_same_location() {
        let (m, _) = mapper();
        let a = m.decode(100);
        let b = m.decode(64);
        assert_eq!(a, b, "bytes within one 64B chunk share a location");
    }

    #[test]
    fn block_stays_in_one_row_per_channel() {
        let (m, _) = mapper();
        // A 2 KB block = 32 subblocks = 4 per channel. All four in channel 0
        // should decode to the same row and bank.
        let base = 0u64;
        let ch0: Vec<Location> = (0..32)
            .map(|i| m.decode(base + i * 64))
            .filter(|l| l.channel == 0)
            .collect();
        assert_eq!(ch0.len(), 4);
        assert!(ch0
            .iter()
            .all(|l| l.row == ch0[0].row && l.bank == ch0[0].bank));
    }

    #[test]
    fn rows_rotate_banks() {
        let (m, cfg) = mapper();
        // Jump one full row within channel 0: 8 KB x 8 channels apart.
        let stride = cfg.row_bytes * u64::from(cfg.channels);
        let l0 = m.decode(0);
        let l1 = m.decode(stride);
        assert_eq!(l1.channel, 0);
        assert_ne!(l0.bank, l1.bank, "consecutive rows use different banks");
    }

    #[test]
    fn bank_in_channel_flattening() {
        let cfg = DramConfig::ddr3();
        let loc = Location {
            channel: 1,
            rank: 0,
            bank: 5,
            row: 7,
        };
        assert_eq!(loc.bank_in_channel(&cfg), 5);
    }

    #[test]
    fn decode_is_total_over_large_addresses() {
        let (m, cfg) = mapper();
        let loc = m.decode(u64::from(u32::MAX) * 64);
        assert!(loc.channel < cfg.channels);
        assert!(loc.bank < cfg.banks);
        assert!(loc.rank < cfg.ranks);
    }

    #[test]
    fn walker_matches_per_chunk_decode() {
        use silcfm_types::check::forall;
        use silcfm_types::rng::Rng;

        for cfg in [DramConfig::hbm2(), DramConfig::ddr3()] {
            let m = AddressMapper::new(&cfg);
            forall("chunk_walker_matches_decode", |rng| {
                // Arbitrary (unaligned) start, long enough to cross rows
                // and banks in every configuration.
                let start = rng.gen_range(0..1u64 << 34);
                let chunks = rng.gen_range(1..200u64);
                let mut walker = ChunkWalker::new(&m, start);
                for i in 0..chunks {
                    let addr = (start / CHANNEL_INTERLEAVE_BYTES + i) * CHANNEL_INTERLEAVE_BYTES;
                    assert_eq!(
                        walker.location(),
                        m.decode(addr),
                        "chunk {i} of walk from {start:#x}"
                    );
                    walker.advance();
                }
            });
        }
    }
}
