//! Name of the query-kernel configuration, for fingerprinting results.
//!
//! Every query kernel is the scalar word-RAM procedure of the paper (a few
//! `msb`/LCP/shift operations per level), so there is exactly one
//! configuration.  Experiment tables and benchmark reports still print it so
//! recorded numbers state what produced them.

/// Human-readable name of the kernel configuration: always `"scalar"`.
pub fn kernel_config() -> &'static str {
    "scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_config_names_the_one_configuration() {
        assert_eq!(kernel_config(), "scalar");
    }
}
