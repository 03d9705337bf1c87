//! Conservative-synchronization lookahead for region-sharded runs.
//!
//! A conservative parallel executor (Chandy–Misra–Bryant) may only let a
//! shard run ahead of its peers by the *lookahead*: the guaranteed minimum
//! delay of any event one shard can inject into another. In this stack a
//! cross-shard event is always a message crossing an L3-region boundary, and
//! three physical channels bound how soon one can land:
//!
//! * **Radio hop latency** — every radio delivery is charged at least
//!   [`RadioConfig::per_hop_overhead`] (serialization, jitter and contention
//!   only add to it), so no radio packet crosses a boundary sooner.
//! * **Wired RSU backbone latency** — an inter-region wired transfer
//!   traverses at least one backbone link, costing at least the per-link
//!   latency of [`crate::WiredNetwork`]. Intra-RSU transfers are zero-hop
//!   but also intra-region, so they never cross shards.
//! * **Radio-range crossing time** — a vehicle's transmissions reach at most
//!   `range` meters, so a node strictly outside that disc needs at least
//!   `range / max_speed` of simulated time before it can close into
//!   radio-interaction distance. This term dominates only in degenerate
//!   configs (it is tens of seconds at paper parameters), but it keeps the
//!   derivation honest when the latency terms are made extreme.
//!
//! The lookahead is the **minimum** of the applicable bounds, which makes it
//! monotone non-decreasing in each input (raising any latency or the radio
//! range can only raise the min; raising the max speed can only lower it).
//! A zero lookahead would deadlock a conservative executor at its first
//! barrier, so any zero component is rejected as a configuration error.

use crate::radio::RadioConfig;
use vanet_des::SimDuration;

/// Why a conservative lookahead could not be derived — each case is a
/// degenerate configuration that would stall a sharded run at its first
/// epoch barrier, reported up front instead of deadlocking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LookaheadError {
    /// `RadioConfig::per_hop_overhead` is zero: a radio packet could cross a
    /// region boundary in zero simulated time.
    ZeroRadioOverhead,
    /// The wired backbone is present with a zero per-link latency: an
    /// inter-RSU transfer could cross regions instantly.
    ZeroWiredDelay,
    /// The radio range or the maximum vehicle speed makes the crossing-time
    /// bound non-positive (or not finite).
    BadKinematics {
        /// Radio range, meters.
        range: f64,
        /// Maximum vehicle speed, m/s.
        max_speed: f64,
    },
}

impl std::fmt::Display for LookaheadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookaheadError::ZeroRadioOverhead => write!(
                f,
                "cannot derive a conservative lookahead: radio per-hop overhead is zero \
                 (a packet could cross a region boundary in zero simulated time)"
            ),
            LookaheadError::ZeroWiredDelay => write!(
                f,
                "cannot derive a conservative lookahead: the wired RSU backbone has a \
                 zero per-link latency (an inter-region transfer would be instantaneous)"
            ),
            LookaheadError::BadKinematics { range, max_speed } => write!(
                f,
                "cannot derive a conservative lookahead: radio range {range} m at max \
                 speed {max_speed} m/s gives a non-positive boundary crossing time"
            ),
        }
    }
}

impl std::error::Error for LookaheadError {}

/// Derives the conservative cross-shard lookahead from the radio model, the
/// wired backbone's per-link latency (`None` when the scenario runs without
/// a backbone — the term then contributes no bound), and the mobility
/// model's maximum vehicle speed in m/s. See the module docs for the three
/// bounds; the result is their minimum and is strictly positive on success.
pub fn conservative_lookahead(
    radio: &RadioConfig,
    wired_link_delay: Option<SimDuration>,
    max_speed: f64,
) -> Result<SimDuration, LookaheadError> {
    if radio.per_hop_overhead.is_zero() {
        return Err(LookaheadError::ZeroRadioOverhead);
    }
    let mut lookahead = radio.per_hop_overhead;
    if let Some(link) = wired_link_delay {
        if link.is_zero() {
            return Err(LookaheadError::ZeroWiredDelay);
        }
        lookahead = lookahead.min(link);
    }
    let crossing_secs = radio.range / max_speed;
    if !crossing_secs.is_finite() || crossing_secs <= 0.0 {
        return Err(LookaheadError::BadKinematics {
            range: radio.range,
            max_speed,
        });
    }
    // Round *down* to the microsecond clock: a conservative bound must never
    // overstate how much headroom the executor has.
    let crossing = SimDuration::from_micros((crossing_secs * 1e6).floor() as u64);
    if crossing.is_zero() {
        return Err(LookaheadError::BadKinematics {
            range: radio.range,
            max_speed,
        });
    }
    Ok(lookahead.min(crossing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn radio(overhead_us: u64, range: f64) -> RadioConfig {
        RadioConfig {
            per_hop_overhead: SimDuration::from_micros(overhead_us),
            range,
            ..RadioConfig::default()
        }
    }

    fn us(v: u64) -> Option<SimDuration> {
        Some(SimDuration::from_micros(v))
    }

    #[test]
    fn paper_config_gives_the_radio_hop_bound() {
        // Paper parameters: 500 µs hop overhead, 2 ms wired links, 500 m at
        // 16.7 m/s ≈ 30 s crossing — the hop overhead is the binding term.
        let la = conservative_lookahead(&RadioConfig::default(), us(2_000), 60.0 / 3.6)
            .expect("valid config derives");
        assert_eq!(la, SimDuration::from_micros(500));
    }

    #[test]
    fn wired_term_binds_when_faster_than_radio() {
        let la = conservative_lookahead(&radio(5_000, 500.0), us(300), 16.7).unwrap();
        assert_eq!(la, SimDuration::from_micros(300));
        // No backbone at all: the wired term simply does not apply.
        let la = conservative_lookahead(&radio(5_000, 500.0), None, 16.7).unwrap();
        assert_eq!(la, SimDuration::from_micros(5_000));
    }

    #[test]
    fn degenerate_configs_fail_fast_with_clear_errors() {
        let e = conservative_lookahead(&radio(0, 500.0), None, 16.7).unwrap_err();
        assert_eq!(e, LookaheadError::ZeroRadioOverhead);
        assert!(e.to_string().contains("per-hop overhead is zero"));

        let e = conservative_lookahead(&radio(500, 500.0), us(0), 16.7).unwrap_err();
        assert_eq!(e, LookaheadError::ZeroWiredDelay);
        assert!(e.to_string().contains("zero per-link latency"));

        let e = conservative_lookahead(&radio(500, 0.0), None, 16.7).unwrap_err();
        assert!(matches!(e, LookaheadError::BadKinematics { .. }));
        assert!(e.to_string().contains("crossing time"));
        // Infinite speed and zero-over-zero are kinematics errors too.
        assert!(conservative_lookahead(&radio(500, 500.0), None, f64::INFINITY).is_err());
        assert!(conservative_lookahead(&radio(500, 0.0), None, 0.0).is_err());
    }

    proptest! {
        /// Strictly positive for every valid config: the constructor-level
        /// guarantee the epoch executor's fail-fast check relies on.
        #[test]
        fn lookahead_is_strictly_positive_for_valid_configs(
            overhead_us in 1u64..10_000_000,
            link_us in 1u64..10_000_000,
            range in 1.0f64..10_000.0,
            max_speed in 0.1f64..200.0,
        ) {
            let la = conservative_lookahead(&radio(overhead_us, range), us(link_us), max_speed);
            // `range/max_speed` can floor to zero microseconds only when the
            // crossing time is under 1 µs — that rejection is itself correct.
            match la {
                Ok(d) => prop_assert!(d > SimDuration::ZERO),
                Err(e) => {
                    prop_assert!(matches!(e, LookaheadError::BadKinematics { .. }));
                    prop_assert!(range / max_speed < 1e-6);
                }
            }
        }

        /// Monotone in the RSU backbone latency and the radio range: raising
        /// either never shrinks the lookahead (it is a min of terms each
        /// non-decreasing in that input).
        #[test]
        fn lookahead_is_monotone_in_latency_and_range(
            overhead_us in 1u64..100_000,
            link_us in 1u64..100_000,
            link_bump in 0u64..100_000,
            range in 1.0f64..5_000.0,
            range_bump in 0.0f64..5_000.0,
            max_speed in 0.5f64..100.0,
        ) {
            let base = conservative_lookahead(
                &radio(overhead_us, range), us(link_us), max_speed);
            let more_wired = conservative_lookahead(
                &radio(overhead_us, range), us(link_us + link_bump), max_speed);
            let more_range = conservative_lookahead(
                &radio(overhead_us, range + range_bump), us(link_us), max_speed);
            if let (Ok(b), Ok(w), Ok(r)) = (base, more_wired, more_range) {
                prop_assert!(w >= b, "raising wired latency shrank the lookahead");
                prop_assert!(r >= b, "raising radio range shrank the lookahead");
            }
        }
    }
}
