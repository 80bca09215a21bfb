// D5 fixture: panic inside a Transport impl (expected: line 5 only).
pub struct Loopback;
impl Transport for Loopback {
    fn recv(&self, slot: Option<u64>) -> u64 {
        slot.unwrap()
    }
}
pub fn helper(slot: Option<u64>) -> u64 {
    slot.unwrap()
}
