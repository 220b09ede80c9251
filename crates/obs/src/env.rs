//! Environment-variable parsing that never fails silently.
//!
//! Every knob in the workspace is an environment variable
//! (`CMP_BENCH_THREADS`, `CMP_SERVE_QUEUE`, `CMP_JOURNAL_FSYNC_EVERY`,
//! ...), and an operator who typos one deserves a line on stderr, not
//! a silent fall-back to the default. [`env_parse`] is the shared
//! front door: unset means unset ([`None`]), a clean parse yields the
//! value, and anything else — unparsable text, an empty string, a
//! non-unicode value — emits a [`crate::warn!`] naming the variable
//! and the offending value before falling back to [`None`].

use std::str::FromStr;

/// Reads and parses the environment variable `name`.
///
/// * unset or set to whitespace only → `None`, silently (absence is a
///   configuration, not a mistake);
/// * parses as `T` (after trimming) → `Some(value)`;
/// * anything else → a warning naming the variable and the offending
///   value, then `None` so the caller's default applies.
pub fn env_parse<T: FromStr>(name: &str) -> Option<T> {
    env_parse_valid(name, |_| true)
}

/// Like [`env_parse`] but with an additional validity predicate:
/// values that parse but fail `valid` are warned about and rejected
/// the same way (e.g. a thread count of 0).
pub fn env_parse_valid<T: FromStr>(name: &str, valid: impl Fn(&T) -> bool) -> Option<T> {
    match std::env::var(name) {
        Ok(raw) => {
            let trimmed = raw.trim();
            if trimmed.is_empty() {
                return None;
            }
            let expected = std::any::type_name::<T>();
            match trimmed.parse::<T>() {
                Ok(value) if valid(&value) => Some(value),
                Ok(_) => {
                    crate::warn!(
                        "ignoring invalid environment variable",
                        var = name,
                        value = raw,
                        expected = expected
                    );
                    None
                }
                Err(_) => {
                    crate::warn!(
                        "ignoring unparsable environment variable",
                        var = name,
                        value = raw,
                        expected = expected
                    );
                    None
                }
            }
        }
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            crate::warn!("ignoring non-unicode environment variable", var = name);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Capture;

    // `std::env` is process-global; these tests serialize themselves
    // and use uniquely named variables so the harness's parallel
    // scheduling cannot interleave them with each other or with other
    // env-reading tests.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn unset_and_empty_are_silent() {
        let _guard = env_lock();
        let capture = Capture::install();
        std::env::remove_var("CMP_TEST_ENV_UNSET");
        assert_eq!(env_parse::<u64>("CMP_TEST_ENV_UNSET"), None);
        std::env::set_var("CMP_TEST_ENV_EMPTY", "  ");
        assert_eq!(env_parse::<u64>("CMP_TEST_ENV_EMPTY"), None);
        assert!(capture.lines().is_empty(), "{:?}", capture.lines());
        std::env::remove_var("CMP_TEST_ENV_EMPTY");
    }

    #[test]
    fn clean_values_parse() {
        let _guard = env_lock();
        std::env::set_var("CMP_TEST_ENV_OK", " 42 ");
        assert_eq!(env_parse::<u64>("CMP_TEST_ENV_OK"), Some(42));
        std::env::remove_var("CMP_TEST_ENV_OK");
    }

    #[test]
    fn unparsable_values_warn_with_the_offender() {
        let _guard = env_lock();
        let capture = Capture::install();
        std::env::set_var("CMP_TEST_ENV_BAD", "not-a-number");
        assert_eq!(env_parse::<u64>("CMP_TEST_ENV_BAD"), None);
        assert!(capture.contains("var=CMP_TEST_ENV_BAD"), "{:?}", capture.lines());
        assert!(capture.contains("value=not-a-number"), "{:?}", capture.lines());
        std::env::remove_var("CMP_TEST_ENV_BAD");
    }

    #[test]
    fn invalid_values_warn_through_the_predicate() {
        let _guard = env_lock();
        let capture = Capture::install();
        std::env::set_var("CMP_TEST_ENV_ZERO", "0");
        assert_eq!(env_parse_valid::<usize>("CMP_TEST_ENV_ZERO", |n| *n >= 1), None);
        assert!(capture.contains("var=CMP_TEST_ENV_ZERO"), "{:?}", capture.lines());
        assert!(capture.contains("value=0"), "{:?}", capture.lines());
        std::env::set_var("CMP_TEST_ENV_ONE", "3");
        assert_eq!(env_parse_valid::<usize>("CMP_TEST_ENV_ONE", |n| *n >= 1), Some(3));
        std::env::remove_var("CMP_TEST_ENV_ZERO");
        std::env::remove_var("CMP_TEST_ENV_ONE");
    }
}
