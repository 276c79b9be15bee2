//! Reduction of one point's dsim trace to the counters the per-layer
//! metrics need. The trace is summarized as soon as the point ends and
//! then dropped, so at most one ring per job in flight is alive.

use dsim::{TraceData, TraceKind, TraceLayer};

/// Counters of one traced point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// Events the ring overwrote (must be 0).
    pub dropped: u64,
    /// Events recorded.
    pub recorded: u64,
    /// TCP data segments sent (`TxSegment` spans).
    pub tx_segments: u64,
    /// TCP pure ACKs sent (`AckTx` spans).
    pub pure_acks: u64,
    /// TCP retransmitted segments (`Retransmits` counter).
    pub retransmits: u64,
    /// SOVIA descriptor posts carrying data (`DescriptorPost` spans with
    /// a length).
    pub sovia_data_posts: u64,
    /// SOVIA control descriptor posts: explicit ACKs and connection
    /// control (`DescriptorPost` spans without a length).
    pub sovia_ctrl_posts: u64,
    /// SOVIA descriptors posted (`DescriptorsPosted` counter).
    pub sovia_descriptors: u64,
    /// ACKs piggybacked on SOVIA data.
    pub acks_piggybacked: u64,
    /// ACKs coalesced into one explicit SOVIA ACK (beyond the first).
    pub sovia_acks_delayed: u64,
    /// Small sends merged by SOVIA combining.
    pub combined_sends: u64,
    /// Bytes copied, all layers.
    pub bytes_copied: u64,
    /// Bytes copied by SOVIA.
    pub sovia_bytes_copied: u64,
    /// Bytes moved zero-copy (registered user buffers).
    pub bytes_zero_copy: u64,
    /// VIA memory registrations (`MemRegister` spans).
    pub registrations: u64,
}

impl TraceCounts {
    /// Summarize a drained trace.
    pub fn of(t: &TraceData) -> TraceCounts {
        let mut c = TraceCounts {
            dropped: t.dropped,
            recorded: t.events.len() as u64,
            ..TraceCounts::default()
        };
        for e in &t.events {
            let v = e.tag.value;
            match (e.layer, e.kind) {
                (_, TraceKind::TxSegment) => c.tx_segments += 1,
                (_, TraceKind::AckTx) => c.pure_acks += 1,
                (_, TraceKind::Retransmits) => c.retransmits += v,
                (TraceLayer::Sovia, TraceKind::DescriptorPost) if v > 0 => c.sovia_data_posts += 1,
                (TraceLayer::Sovia, TraceKind::DescriptorPost) => c.sovia_ctrl_posts += 1,
                (TraceLayer::Sovia, TraceKind::DescriptorsPosted) => c.sovia_descriptors += v,
                (_, TraceKind::AcksPiggybacked) => c.acks_piggybacked += v,
                (TraceLayer::Sovia, TraceKind::AcksDelayed) => c.sovia_acks_delayed += v,
                (_, TraceKind::CombinedSends) => c.combined_sends += v,
                (layer, TraceKind::BytesCopied) => {
                    c.bytes_copied += v;
                    if layer == TraceLayer::Sovia {
                        c.sovia_bytes_copied += v;
                    }
                }
                (_, TraceKind::BytesZeroCopy) => c.bytes_zero_copy += v,
                (_, TraceKind::MemRegister) => c.registrations += 1,
                _ => {}
            }
        }
        c
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &TraceCounts) {
        self.dropped += o.dropped;
        self.recorded += o.recorded;
        self.tx_segments += o.tx_segments;
        self.pure_acks += o.pure_acks;
        self.retransmits += o.retransmits;
        self.sovia_data_posts += o.sovia_data_posts;
        self.sovia_ctrl_posts += o.sovia_ctrl_posts;
        self.sovia_descriptors += o.sovia_descriptors;
        self.acks_piggybacked += o.acks_piggybacked;
        self.sovia_acks_delayed += o.sovia_acks_delayed;
        self.combined_sends += o.combined_sends;
        self.bytes_copied += o.bytes_copied;
        self.sovia_bytes_copied += o.sovia_bytes_copied;
        self.bytes_zero_copy += o.bytes_zero_copy;
        self.registrations += o.registrations;
    }
}
