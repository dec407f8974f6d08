package repro

/** Both methods are one index type ([[repro.core.SignatureIndex]]); the
  * per-method names remain for the callers that spell the method out.
  */
package object core {
  type RamboIndex = SignatureIndex
  type BigsiIndex = SignatureIndex
}
