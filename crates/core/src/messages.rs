//! Wire payloads and timer keys of the HLSRG protocol.

use serde::{Deserialize, Serialize};
use vanet_des::SimTime;
use vanet_geo::{Heading, Point};
use vanet_mobility::VehicleId;
use vanet_net::{NodeId, QueryId};
use vanet_roadnet::{L1Id, L2Id, L3Id, RoadClass, RoadId};

/// A vehicle's one-hop location update broadcast (paper §2.2: location, time,
/// direction, Level-1 grid number, and id).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdatePacket {
    /// The updating vehicle.
    pub vehicle: VehicleId,
    /// Its position when sending.
    pub pos: Point,
    /// Send time.
    pub time: SimTime,
    /// Direction of travel (drives the directional search later).
    pub heading: Heading,
    /// Road being driven.
    pub road: RoadId,
    /// Class of that road.
    pub road_class: RoadClass,
    /// The L1 grid this update belongs to.
    pub l1: L1Id,
}

/// Which hierarchy level must process a request next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestStage {
    /// Resolve at an L1 grid center.
    L1 {
        /// The grid.
        l1: L1Id,
        /// True if an upper level routed the request down (a second miss then
        /// escalates straight to L3 instead of ping-ponging).
        from_l2: bool,
    },
    /// Resolve at an L2 RSU.
    L2 {
        /// The grid.
        l2: L2Id,
        /// True if an L3 RSU routed the request down; a miss then means the
        /// hierarchy's freshest pointer is already stale, so the request dies
        /// instead of ping-ponging back up.
        from_l3: bool,
    },
    /// Resolve at an L3 RSU.
    L3 {
        /// The grid.
        l3: L3Id,
        /// True if another L3 RSU forwarded it (paper: such requests must resolve
        /// here).
        from_l3: bool,
    },
}

/// A location request working its way through the hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestPacket {
    /// Query this request serves.
    pub query: QueryId,
    /// The asking vehicle.
    pub src: VehicleId,
    /// The sought vehicle.
    pub dst: VehicleId,
    /// Source position at launch (so servers can answer without a reverse lookup).
    pub src_pos: Point,
    /// Current processing level.
    pub stage: RequestStage,
    /// Remaining escalation/forward budget (loop protection).
    pub budget: u8,
    /// L1 table summary attached when an L1 center escalates (paper: "send its own
    /// table and the request packet to its Level 2 RSU").
    pub attach: Option<(L1Id, Vec<(VehicleId, SimTime)>)>,
}

/// The notification searching for the destination vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NotifyPacket {
    /// Query this notification serves.
    pub query: QueryId,
    /// The asking vehicle (the ACK's target).
    pub src: VehicleId,
    /// The vehicle being notified.
    pub dst: VehicleId,
    /// Where the asking vehicle is (included per paper so `dst` can ACK).
    pub src_pos: Point,
}

/// Everything HLSRG puts on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HlsrgPayload {
    /// One-hop location update broadcast.
    Update(UpdatePacket),
    /// A departing custodian's table hand-off broadcast at the intersection
    /// (paper §2.2.2). Carries no rows on the wire in our logical-table model —
    /// the packet exists for overhead accounting and remains a protocol hook.
    TableHandoff {
        /// The grid whose table is handed off.
        l1: L1Id,
    },
    /// L1 center → L2 RSU table push.
    TableToL2 {
        /// Destination grid.
        l2: L2Id,
        /// Reporting L1 grid.
        from_l1: L1Id,
        /// `(vehicle, update time)` rows.
        rows: Vec<(VehicleId, SimTime)>,
    },
    /// L2 RSU → L3 RSU wired table push.
    TableToL3 {
        /// Destination grid.
        l3: L3Id,
        /// Reporting L2 grid.
        from_l2: L2Id,
        /// `(vehicle, update time)` rows.
        rows: Vec<(VehicleId, SimTime)>,
    },
    /// A location request at some stage of resolution.
    Request(RequestPacket),
    /// The search notification flooded toward the destination.
    Notify(NotifyPacket),
    /// The destination's acknowledgement back to the source.
    Ack {
        /// Query being answered.
        query: QueryId,
    },
    /// Post-discovery application data riding GPSR to the located vehicle.
    Data {
        /// The discovery session this packet belongs to.
        session: QueryId,
        /// Packet sequence number within the session.
        seq: u32,
        /// The destination vehicle.
        dst: VehicleId,
    },
}

/// The last-known whereabouts a location server answers from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NotifySource {
    /// Recorded position.
    pub pos: Point,
    /// Recorded direction of travel.
    pub heading: Heading,
    /// Road class at update time: artery → directional search; normal → grid flood.
    pub road_class: RoadClass,
    /// The grid the entry lives in.
    pub l1: L1Id,
}

/// HLSRG timers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HlsrgTimer {
    /// A custodian won the 0–15-slot election and will notify the destination.
    ServeNotify {
        /// Query served.
        query: QueryId,
        /// The elected location server.
        server: NodeId,
        /// Last-known whereabouts of the destination (boxed, like the
        /// other large timer fields, to keep every queued event small).
        source: Box<NotifySource>,
        /// Asking vehicle.
        src: VehicleId,
        /// Sought vehicle.
        dst: VehicleId,
    },
    /// The 17–31-slot "nobody knows" backoff expired: escalate the request.
    Escalate {
        /// Node that forwards the request.
        server: NodeId,
        /// The request, already restaged at the next level.
        request: Box<RequestPacket>,
    },
    /// Periodic L1-center table push to the L2 RSU.
    L1Collect {
        /// The grid to collect.
        l1: L1Id,
    },
    /// Periodic L2 → L3 wired table push.
    L2Push {
        /// The grid to push.
        l2: L2Id,
    },
    /// The source's 5 s ACK timeout: retry straight at the nearest L3 RSU.
    QueryTimeout {
        /// Query to check.
        query: QueryId,
        /// The asking vehicle.
        src: VehicleId,
        /// The sought vehicle.
        dst: VehicleId,
    },
}
