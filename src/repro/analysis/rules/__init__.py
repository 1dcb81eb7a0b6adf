"""Built-in analysis rules: ``RULES`` is every rule ``repro check`` runs,
in name order."""

from .digest import DigestSchemaRule
from .hygiene import HygieneRule
from .locks import LockDisciplineRule
from .naming import ObsNamingRule
from .wire_protocol import WireProtocolRule

RULES = (DigestSchemaRule, HygieneRule, LockDisciplineRule, ObsNamingRule,
         WireProtocolRule)
