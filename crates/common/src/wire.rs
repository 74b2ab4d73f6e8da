//! Wire-size reporting for simulated network messages.
//!
//! Lives in `common` (rather than the simulator) so message crates can
//! implement it without depending on the simulation kernel.

/// Messages crossing the simulated network report their size so the NIC
/// model can charge transmit serialization.
pub trait WireSized {
    /// Bytes this message occupies on the wire.
    fn wire_size(&self) -> u64;
}

/// A message the simulation kernel can hand to a NIC. The kernel only
/// reads its wire size: the send and departure times it keeps itself,
/// next to the payload, and hands to the receiver with the delivery.
pub trait SimMessage: WireSized {}
