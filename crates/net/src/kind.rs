//! Static dispatch over the fabric implementations.

use tcni_core::{Message, NodeId};

use crate::stats::NetStats;
use crate::topology::Topology as _;
use crate::{Fabric, FaultyFabric, IdealNetwork, InjectError, Network};

/// The fabrics, as a closed enum.
///
/// The machine simulator drives the network once per phase of every cycle;
/// with a `Box<dyn Network>` each of those calls is an indirect jump the
/// compiler cannot inline. This enum makes the dispatch a predictable branch
/// and lets the per-cycle fast paths (`tick`, `in_flight`, `peek_eject`)
/// inline into the stepping loop.
pub enum NetworkKind {
    /// Contention-free fixed-latency fabric.
    Ideal(IdealNetwork),
    /// Switched fabric (mesh/torus/ring/fully-connected) with finite
    /// buffers and backpressure.
    Fabric(Fabric),
    /// Either base fabric behind a deterministic fault-injection layer.
    Faulty(FaultyFabric),
}

impl NetworkKind {
    /// The ideal fabric — directly or behind a fault layer.
    pub fn as_ideal(&self) -> Option<&IdealNetwork> {
        match self {
            NetworkKind::Ideal(n) => Some(n),
            NetworkKind::Fabric(_) => None,
            NetworkKind::Faulty(f) => f.inner().as_ideal(),
        }
    }

    /// The switched fabric — directly or behind a fault layer.
    pub fn as_fabric(&self) -> Option<&Fabric> {
        match self {
            NetworkKind::Ideal(_) => None,
            NetworkKind::Fabric(n) => Some(n),
            NetworkKind::Faulty(f) => f.inner().as_fabric(),
        }
    }

    /// Mutable access to the switched fabric — directly or behind a fault
    /// layer (used to toggle per-link observability).
    pub fn as_fabric_mut(&mut self) -> Option<&mut Fabric> {
        match self {
            NetworkKind::Ideal(_) => None,
            NetworkKind::Fabric(n) => Some(n),
            NetworkKind::Faulty(f) => f.inner_mut().as_fabric_mut(),
        }
    }

    /// The fault layer, if this fabric has one.
    pub fn as_faulty(&self) -> Option<&FaultyFabric> {
        match self {
            NetworkKind::Faulty(f) => Some(f),
            _ => None,
        }
    }

    /// Short name of the *base* fabric (`"ideal"` or the topology name —
    /// `"mesh"`, `"torus"`, `"ring"`, `"full"`), looking through a fault
    /// layer: the fault wrapper changes the link behaviour, not the
    /// topology.
    pub fn base_name(&self) -> &'static str {
        match self {
            NetworkKind::Ideal(_) => "ideal",
            NetworkKind::Fabric(n) => n.config().topo.name(),
            NetworkKind::Faulty(f) => f.inner().base_name(),
        }
    }
}

impl From<IdealNetwork> for NetworkKind {
    fn from(n: IdealNetwork) -> NetworkKind {
        NetworkKind::Ideal(n)
    }
}

impl From<Fabric> for NetworkKind {
    fn from(n: Fabric) -> NetworkKind {
        NetworkKind::Fabric(n)
    }
}

impl From<FaultyFabric> for NetworkKind {
    fn from(n: FaultyFabric) -> NetworkKind {
        NetworkKind::Faulty(n)
    }
}

macro_rules! delegate {
    ($self:ident, $n:ident => $body:expr) => {
        match $self {
            NetworkKind::Ideal($n) => $body,
            NetworkKind::Fabric($n) => $body,
            NetworkKind::Faulty($n) => $body,
        }
    };
}

impl Network for NetworkKind {
    fn node_count(&self) -> usize {
        delegate!(self, n => n.node_count())
    }

    fn inject(&mut self, src: NodeId, msg: Message) -> Result<(), InjectError> {
        delegate!(self, n => n.inject(src, msg))
    }

    fn peek_eject(&self, dst: NodeId) -> Option<&Message> {
        delegate!(self, n => n.peek_eject(dst))
    }

    fn eject(&mut self, dst: NodeId) -> Option<Message> {
        delegate!(self, n => n.eject(dst))
    }

    fn tick(&mut self) {
        delegate!(self, n => n.tick())
    }

    fn in_flight(&self) -> usize {
        delegate!(self, n => n.in_flight())
    }

    fn stats(&self) -> NetStats {
        delegate!(self, n => n.stats())
    }

    fn next_arrival(&self) -> Option<u64> {
        delegate!(self, n => n.next_arrival())
    }

    fn advance(&mut self, cycles: u64) {
        delegate!(self, n => n.advance(cycles))
    }

    fn next_eject_ready(&self, from: usize) -> Option<usize> {
        delegate!(self, n => n.next_eject_ready(from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcni_isa::MsgType;

    #[test]
    fn delegates_to_the_wrapped_fabric() {
        let mut net = NetworkKind::from(IdealNetwork::new(2, 3));
        assert_eq!(net.node_count(), 2);
        assert!(net.as_ideal().is_some() && net.as_fabric().is_none());
        let m = Message::to(NodeId::new(1), [0, 7, 0, 0, 0], MsgType::new(2).unwrap());
        net.inject(NodeId::new(0), m).unwrap();
        assert_eq!(net.next_arrival(), Some(3));
        net.advance(3);
        assert_eq!(net.eject(NodeId::new(1)).unwrap().words[1], 7);

        let mesh = NetworkKind::from(Fabric::new(crate::FabricConfig::new(2, 2)));
        assert_eq!(mesh.node_count(), 4);
        assert_eq!(
            mesh.next_arrival(),
            None,
            "the mesh cannot predict arrivals"
        );
    }

    #[test]
    fn faulty_accessors_see_through_the_wrapper() {
        use crate::{FaultConfig, FaultyFabric};
        let mut net = NetworkKind::from(FaultyFabric::new(
            Fabric::new(crate::FabricConfig::new(2, 2)).into(),
            FaultConfig::quiet(9),
        ));
        assert_eq!(net.base_name(), "mesh");
        assert!(
            net.as_fabric().is_some(),
            "mesh visible through the wrapper"
        );
        assert!(net.as_fabric_mut().is_some());
        assert!(net.as_ideal().is_none());
        assert!(net.as_faulty().is_some());
        assert_eq!(net.node_count(), 4);

        let ideal = NetworkKind::from(FaultyFabric::new(
            IdealNetwork::new(2, 1).into(),
            FaultConfig::quiet(9),
        ));
        assert_eq!(ideal.base_name(), "ideal");
        assert!(ideal.as_ideal().is_some());
        assert!(NetworkKind::from(IdealNetwork::new(2, 1))
            .as_faulty()
            .is_none());
    }

    /// A node past the end of the fabric is a typed rejection on all three
    /// networks: injecting from it or to it is `BadDest`, counted in
    /// `bad_dest` before any stall gate or fault draw, and peeking or
    /// ejecting there finds nothing.
    #[test]
    fn out_of_range_nodes_are_rejected_without_a_panic() {
        use crate::{FabricConfig, FaultConfig, FaultyFabric};
        let nets: [NetworkKind; 3] = [
            IdealNetwork::new(4, 1).into(),
            Fabric::new(FabricConfig::new(2, 2)).into(),
            FaultyFabric::new(
                Fabric::new(FabricConfig::new(2, 2)).into(),
                FaultConfig::uniform(3, 1000),
            )
            .into(),
        ];
        for mut net in nets {
            let name = net.base_name();
            let to = |dst| Message::to(NodeId::new(dst), [0; 5], MsgType::new(2).unwrap());
            for (src, dst) in [(4, 1), (1, 4), (255, 255)] {
                let m = to(dst);
                match net.inject(NodeId::new(src), m) {
                    Err(InjectError::BadDest(back)) => assert_eq!(back, m, "{name}"),
                    other => panic!("{name}: {src}->{dst} gave {other:?}"),
                }
            }
            for dst in [4, 255] {
                assert!(net.peek_eject(NodeId::new(dst)).is_none(), "{name}");
                assert!(net.eject(NodeId::new(dst)).is_none(), "{name}");
            }
            let s = net.stats();
            assert_eq!((s.bad_dest, s.injected), (3, 0), "{name}");
            assert!(!s.faults.any(), "{name}: no fault was drawn");
            assert_eq!(net.in_flight(), 0, "{name}");
        }
    }

    #[test]
    fn base_name_reports_the_topology() {
        use crate::{FaultConfig, FaultyFabric};
        for (cfg, name) in [
            (crate::FabricConfig::torus(2, 2), "torus"),
            (crate::FabricConfig::ring(4), "ring"),
            (crate::FabricConfig::full(4), "full"),
        ] {
            let direct = NetworkKind::from(Fabric::new(cfg));
            assert_eq!(direct.base_name(), name);
            let wrapped = NetworkKind::from(FaultyFabric::new(
                Fabric::new(cfg).into(),
                FaultConfig::quiet(1),
            ));
            assert_eq!(wrapped.base_name(), name, "seen through the fault layer");
        }
    }
}
