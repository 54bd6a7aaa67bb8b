#![no_main]

use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    pwrel_fuzz::fuzz_sz_stream(data);
});
