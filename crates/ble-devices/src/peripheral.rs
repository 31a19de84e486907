//! Generic peripheral plumbing shared by the victim devices.

use ble_host::{HostEvent, HostStack, SecurityAction};
use ble_link::{DeviceAddress, LinkLayer, SleepClockAccuracy};
use ble_phy::{NodeCtx, RadioEvent, RadioListener};
use simkit::{Duration, SimRng};

/// Timer keys with a low byte at or above this value belong to the
/// application layer, not the Link Layer.
pub const APP_TIMER_BASE: u64 = 0x80;

/// Application behaviour of a peripheral: reacts to host events (writes to
/// its characteristics, reads, disconnections).
pub trait PeripheralApp {
    /// Handles one host event; may update GATT values through the stack.
    fn handle_event(&mut self, host: &mut HostStack, event: &HostEvent);
}

/// A complete peripheral device: Link Layer + host stack + application.
///
/// Advertises until connected; processes application traffic while
/// connected; re-advertises after a disconnection (like every commercial
/// peripheral the paper targets).
pub struct Peripheral<A> {
    /// The Link Layer.
    pub ll: LinkLayer,
    /// The host stack (GATT server and friends).
    pub host: HostStack,
    /// The application model.
    pub app: A,
    adv_data: Vec<u8>,
    adv_interval: Duration,
    /// Whether to restart advertising after a disconnection.
    pub auto_readvertise: bool,
    /// Count of connections accepted so far.
    pub connections: usize,
    /// Count of disconnections observed.
    pub disconnections: usize,
    /// Reason code of the last disconnection.
    pub last_disconnect_reason: Option<u8>,
}

impl<A: PeripheralApp> Peripheral<A> {
    /// Assembles a peripheral from its parts.
    pub fn assemble(
        address: DeviceAddress,
        sca: SleepClockAccuracy,
        host: HostStack,
        app: A,
        adv_data: Vec<u8>,
    ) -> Self {
        Peripheral {
            ll: LinkLayer::new(address, sca),
            host,
            app,
            adv_data,
            adv_interval: Duration::from_millis(100),
            auto_readvertise: true,
            connections: 0,
            disconnections: 0,
            last_disconnect_reason: None,
        }
    }

    /// Starts advertising (call once from `World::with_ctx`).
    pub fn start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.ll
            .start_advertising(ctx, self.adv_data.clone(), vec![], self.adv_interval);
    }

    /// Drains host → LL actions and host → app events.
    fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
        while let Some(action) = self.host.take_action() {
            match action {
                SecurityAction::StartEncryption { key, rand, ediv } => {
                    if self.ll.is_connected() {
                        self.ll.request_encryption(ctx, key, rand, ediv);
                    }
                }
            }
        }
        while let Some(event) = self.host.poll_event() {
            match &event {
                HostEvent::Connected { .. } => self.connections += 1,
                HostEvent::Disconnected { reason } => {
                    self.disconnections += 1;
                    self.last_disconnect_reason = Some(*reason);
                    if self.auto_readvertise {
                        self.ll.start_advertising(
                            ctx,
                            self.adv_data.clone(),
                            vec![],
                            self.adv_interval,
                        );
                    }
                }
                _ => {}
            }
            self.app.handle_event(&mut self.host, &event);
        }
    }
}

impl<A: PeripheralApp> RadioListener for Peripheral<A> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.start(ctx);
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { key, .. } = &event {
            if key.0 & 0xFF >= APP_TIMER_BASE {
                // No app timers defined for peripherals yet.
                return;
            }
        }
        self.ll.handle(ctx, event, &mut self.host);
        self.pump(ctx);
    }
}

/// Builds a host stack with a GAP service exposing `name` as the Device
/// Name characteristic — shared scaffolding for the concrete devices.
pub(crate) fn host_with_gap(address: DeviceAddress, name: &str, rng: SimRng) -> (HostStack, u16) {
    use ble_host::gatt::props;
    use ble_host::{GattServer, Uuid};
    let mut server = GattServer::new();
    let name_handle = server
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, name.as_bytes().to_vec())
        .finish();
    (HostStack::new(address, server, rng), name_handle)
}
