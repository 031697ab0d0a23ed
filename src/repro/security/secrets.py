"""Shared-secret management and MAC credentials.

The authority enrols principals with per-principal secrets; a credential is
an HMAC over the principal name keyed by that secret.  Because "it is
possible for any object to assemble a reference, ... a secure object must
check that any access is from a valid source" — the guard verifies the MAC
rather than trusting the reference or the claimed principal name.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict

from repro.errors import AuthenticationError


class SecretAuthority:
    """Per-domain issuer and verifier of shared-secret credentials."""

    def __init__(self, domain_name: str) -> None:
        self.domain_name = domain_name
        self._secrets: Dict[str, bytes] = {}
        self.verifications = 0
        self.rejections = 0

    def enrol(self, principal: str, secret: bytes = b"") -> bytes:
        """Register a principal; derive a secret if none supplied."""
        if not secret:
            secret = hashlib.sha256(
                f"{self.domain_name}:{principal}".encode("utf-8")).digest()
        self._secrets[principal] = secret
        return secret

    def is_enrolled(self, principal: str) -> bool:
        return principal in self._secrets

    def _token(self, principal: str, secret: bytes) -> str:
        mac = hmac.new(secret,
                       f"{self.domain_name}:{principal}".encode("utf-8"),
                       hashlib.sha256)
        return mac.hexdigest()

    def credentials_for(self, principal: str) -> Dict[str, str]:
        """Credentials a client attaches to its invocation contexts."""
        secret = self._secrets.get(principal)
        if secret is None:
            return {}
        return {self.domain_name: self._token(principal, secret)}

    def verify(self, principal: str, credentials: Dict[str, str]) -> None:
        """Raise :class:`AuthenticationError` unless the MAC checks out."""
        self.verifications += 1
        secret = self._secrets.get(principal or "")
        if secret is None:
            self.rejections += 1
            raise AuthenticationError(
                f"principal {principal!r} is not enrolled in domain "
                f"{self.domain_name}")
        presented = credentials.get(self.domain_name)
        expected = self._token(principal, secret)
        if presented is None or not hmac.compare_digest(presented, expected):
            self.rejections += 1
            raise AuthenticationError(
                f"invalid credentials for principal {principal!r} in "
                f"domain {self.domain_name}")
