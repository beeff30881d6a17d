//! Fixture: the unused-pub check (a `pub fn` must be named in another file).

pub fn called_elsewhere() -> u32 {
    only_here() // no finding: the caller file names it
}

pub fn only_here() -> u32 {
    2 // finding: named in this file alone
}

pub fn only_re_exported() {} // finding: a `pub use` is not a use

pub fn named_in_a_comment() {} // finding: comments and strings are not uses

pub(crate) fn crate_visible() {} // no finding: not public

// sigtidy: allow(unused-pub) — fixture demonstrating the escape hatch
pub fn deliberate_api() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {} // no finding: test code
}
