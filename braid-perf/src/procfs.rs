//! Peak memory from Linux `/proc`, std only.

use std::fs;

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in KiB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(vm_hwm_kb("self").is_some_and(|kb| kb > 0));
        assert_eq!(vm_hwm_kb("0"), None);
    }
}
