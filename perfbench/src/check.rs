//! Correctness checks that guard every run.

use ledgerdb_accumulator::fam::FamProof;
use ledgerdb_core::Journal;
use ledgerdb_crypto::digest::Digest;
use ledgerdb_crypto::sha256::sha256;

/// Feed the verifier one genuine and two tampered existence proofs.
/// The genuine one must verify; the tampered ones (wrong tx hash, wrong
/// epoch root) must be rejected, so a verify path that accepts anything
/// fails the run.
pub fn tampered_proof_rejected(
    verify: impl Fn(&Digest, &FamProof) -> bool,
    tx_hash: &Digest,
    proof: &FamProof,
) -> Result<(), String> {
    if !verify(tx_hash, proof) {
        return Err("genuine proof was rejected".into());
    }
    let mut wrong_hash = *tx_hash;
    wrong_hash.0[0] ^= 1;
    if verify(&wrong_hash, proof) {
        return Err("proof verified for a tampered tx hash".into());
    }
    let mut wrong_root = proof.clone();
    wrong_root.epoch_root.0[31] ^= 1;
    if verify(tx_hash, &wrong_root) {
        return Err("proof with a tampered epoch root verified".into());
    }
    Ok(())
}

/// A fetched journal and payload match a proven tx hash and the payload
/// that was sent.
pub fn journal_matches(
    journal: &Journal,
    payload: Option<&[u8]>,
    proven_tx_hash: &Digest,
    sent_payload_digest: &Digest,
) -> Result<(), String> {
    if journal.tx_hash() != *proven_tx_hash {
        return Err(format!(
            "jsn {}: journal does not hash to the proven tx hash",
            journal.jsn
        ));
    }
    let payload = payload.ok_or_else(|| format!("jsn {}: payload missing", journal.jsn))?;
    let digest = sha256(payload);
    if digest != journal.payload_digest || digest != *sent_payload_digest {
        return Err(format!("jsn {}: payload digest mismatch", journal.jsn));
    }
    Ok(())
}
